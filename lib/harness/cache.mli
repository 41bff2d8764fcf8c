(** A content-addressed on-disk result cache.

    Entries live under a cache directory (default [_results/]) as
    [<md5-hex>.txt], keyed by a hash of the run's identity — target
    name, parameters, full flag — built with {!key}. {!Durable} owns
    how runs use it (entry names, probe and store order); re-running a
    sweep recomputes only the points whose entries are missing.
    Stores are write-then-rename, so readers never observe torn
    entries even with concurrent writers.

    The read path self-heals: every entry carries a
    [TAQCACHEv1 <length> <md5>] integrity trailer, verified by {!find}
    on every read. A corrupted, truncated or trailer-less file is
    deleted (counted in {!evictions}) and reported as a miss, so the
    sweep recomputes the point instead of serving garbage. *)

type t

val default_dir : string
(** ["_results"]. *)

val create : ?dir:string -> unit -> t

val dir : t -> string

val key : parts:string list -> string
(** Content address of a run identity: MD5 hex over the NUL-joined
    parts (e.g. [["sweep"; "droptail"; "cap=600000"; "full=false"]]).
    Include every parameter that affects the output — anything left
    out silently aliases cache entries. *)

val find : t -> key:string -> string option
(** The entry's payload, with the integrity trailer verified and
    stripped. [None] on a missing entry — or on a corrupted one,
    which is evicted from disk first. *)

val store : t -> key:string -> string -> unit
(** Persist payload + integrity trailer (write-then-rename). Never
    raises on I/O failure (ENOSPC, read-only directory): the entry is
    dropped, a warning is printed once per cache, and {!io_errors} /
    the [cache.io_errors] obs counter are bumped — the run continues
    uncached rather than aborting. *)

val evictions : t -> int
(** Corrupted entries deleted by {!find} over this instance's
    lifetime. *)

val io_errors : t -> int
(** Failed {!store}s (degraded-to-uncached) over this instance's
    lifetime. *)
