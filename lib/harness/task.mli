(** A named unit of sweep work.

    A task is a key (the canonical, human-readable description of the
    parameter point, e.g. ["sweep/droptail/cap=600000/fs=10000/rep=0"])
    plus a function from a PRNG seed to a result. The seed is {e
    derived from the key} by {!seed_of_key}, never supplied by the
    scheduler — so a task computes the same result no matter which
    worker domain runs it, in what order, or whether it runs at all in
    the same process as its siblings. *)

type 'a t

val make : key:string -> (seed:int -> 'a) -> 'a t

val key : 'a t -> string

val ensure_distinct : 'a t list -> unit
(** @raise Invalid_argument naming the first key that occurs twice.
    Two tasks with one key would share one seed, one cache entry and
    one journal record — an alias, never two points. *)

val seed_of_key : string -> int
(** Deterministic seed derivation: FNV-1a folds the key into 64 bits,
    a splitmix64 step mixes it, and the result is truncated to a
    non-negative OCaml int. Equal keys give equal seeds; distinct keys
    give (with overwhelming probability) unrelated seeds. *)

val run : 'a t -> 'a
(** [run t] invokes the task body with [~seed:(seed_of_key (key t))]. *)
