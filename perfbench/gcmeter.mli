(** GC accounting read straight from the runtime.

    Minor allocation comes from [Gc.minor_words], which counts the
    words allocated so far in the minor heap, not only the ones swept
    by a finished collection. [Gc.quick_stat]'s counter (what the
    simulator's own observability snapshot uses) only advances at a
    minor collection on OCaml 5, so it under-counts any window shorter
    than a minor-heap fill. *)

val configure : unit -> unit
(** Install the benchmark's own GC parameters (minor heap 8M words, the
    repo's bench profile [OCAMLRUNPARAM=s=8M]; space_overhead 120), so
    an ambient [OCAMLRUNPARAM] cannot shift timing or heap size. *)

val describe : unit -> string
(** The GC parameters in force, one line. *)

type reading = {
  minor : float;
  promoted : float;
  major : float;
  minor_collections : int;
  major_collections : int;
}

val read : unit -> reading
(** [minor] is exact; [promoted] and [major] are as of the last minor
    collection (call [Gc.minor] first for exact values). *)

val diff : reading -> reading -> reading
(** [diff after before]. *)

val peak_heap_mb : unit -> float
(** Major-heap high-water mark ([top_heap_words]) in MB (10{^6} bytes). *)

val live_mb : unit -> float
(** Live major-heap data in MB, after a full major collection. *)

val self_test : unit -> (float, string) result
(** Allocate a known number of minor words and check that
    {!minor_words} moves by that many (within a few words of
    bookkeeping). Returns the measured delta. *)
