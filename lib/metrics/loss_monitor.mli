(** Packet-loss rate measurement at a link.

    Experiments use it to report the operating point (the model's
    [p]). *)

type t

val attach : ?data_only:bool -> Taq_net.Link.t -> t
(** Subscribes to the link's enqueue and drop events. [data_only]
    (default true) ignores SYN/ACK/FIN packets so the rate matches the
    model's per-data-packet [p]. *)

val overall_rate : t -> float
(** drops / (drops + accepted) since attachment; 0 before traffic. *)

val drops : t -> int

val arrivals : t -> int
