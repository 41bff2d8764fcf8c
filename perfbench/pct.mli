(** Percentile summaries: a median plus the highest tail percentile the
    sample supports.

    The tail is the highest of p99.9, p99, p95, p90 and p75 with at
    least {!min_beyond} samples beyond it (nearest rank), so a p99 is
    never read off a handful of points. Below 40 samples not even the
    75th percentile has 10 samples beyond it, and only the median is
    reported. *)

val min_beyond : int
(** 10. *)

type t = {
  n : int;
  median : float;
  tail : (float * float) option;  (** [(percentile, value)] *)
}

val summarize : float array -> t
(** Raises [Invalid_argument] on empty input. The input is not mutated. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p]: the smallest sample with at least [p]
    percent of the sample at or below it. [sorted] must be sorted
    ascending and non-empty. *)

val to_string : unit:string -> t -> string
(** e.g. ["median=1.2s p99=3.4s n=1234"] or
    ["median=1.2s n=7 (too few samples for a tail)"]. *)
