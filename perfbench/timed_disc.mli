(** A timing wrapper around a queue discipline's closures.

    [wrap t disc] returns a {!Taq_net.Disc.t} that calls straight
    through to [disc] and adds the host time spent inside its
    [enqueue], [dequeue] and [dequeue_drops] closures to [t], with call
    counts. It reads the monotonic clock without allocating and never
    touches the packets, so the simulated trajectory is unchanged. *)

type t

val create : unit -> t

val wrap : t -> Taq_net.Disc.t -> Taq_net.Disc.t

val self_s : t -> float
(** Host seconds inside the wrapped closures. *)

val enqueue_calls : t -> int

val dequeue_calls : t -> int
