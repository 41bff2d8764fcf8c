(** Host-time spans of the traced run, kept in memory and written out
    when the benchmark ends.

    A span has a name, a start and an end (host seconds since the
    recorder was created) and the id of the span that was open when it
    began (its parent; [-1] at the top). *)

type t

val create : unit -> t

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span named [name], nested under the innermost
    open span. The span is recorded even if [f] raises. *)

val count : t -> int

val to_json : t -> string
(** A JSON array of [{"id","name","parent","start_s","end_s","self_s"}]
    objects in start order; [self_s] is the duration minus the time its
    child spans cover. *)
