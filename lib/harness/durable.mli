(** The durable task runner: the one owner of the journal/cache
    protocol behind every crash-resumable run ([taq_sim sweep], the
    checkpointed mega tier).

    {!run}, in order:
    - on resume, replays the write-ahead {!Journal} and restores each
      journaled-complete task whose cached payload matches the
      journal's digest;
    - probes the {!Cache} for the other tasks, journaling a [Finish]
      record for each hit (its payload is on disk);
    - executes the rest on the {!Pool}, journaling [Start] before a
      task's first attempt;
    - persists each computed task as it finishes: payload, then obs
      snapshot, then the journal's [Finish] record, so the journal
      never testifies to an entry that is not on disk.

    A task with key [k] stores its payload under [Cache.key ~parts:[k]]
    and, when obs counters are on, its obs snapshot under
    [Cache.key ~parts:[k; "obs"]]. A stored result is served only if
    the payload decodes and (with counters on) the snapshot parses;
    any doubt means recompute. Results come back in input order, each
    with its obs snapshot, so merging them in order gives the same
    counters at any [jobs] and after any resume. *)

type 'a codec = {
  encode : 'a -> string;
  decode : key:string -> string -> 'a option;
      (** [None] rejects the payload stored under [key] (unparseable, or
          a value that belongs to another key) *)
}

val identity : string codec

type 'a outcome =
  | Restored of 'a  (** journaled complete; payload digest verified *)
  | Hit of 'a  (** in the cache, without prior journal testimony *)
  | Computed of 'a
  | Failed of string  (** the pool's error message *)
  | Cancelled  (** skipped by cooperative cancellation *)

type 'a result = {
  key : string;
  outcome : 'a outcome;
  obs : Taq_obs.Obs.snapshot;
      (** the executed attempt's, or the stored one; empty when
          counters are off *)
  elapsed_s : float;  (** 0 unless executed *)
  status : string;
      (** {!Pool.status} when executed or cancelled; ["restored"] or
          ["hit"] otherwise *)
}

val run :
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?cache:Cache.t ->
  ?journal:string ->
  ?resume:bool ->
  ?on_done:(completed:int -> total:int -> 'a Pool.result -> unit) ->
  ?transient:'a Task.t list ->
  'a codec ->
  'a Task.t list ->
  'a result list
(** Results for [tasks @ transient], in that order.

    Without [cache] every task executes and nothing is probed, stored
    or journaled. [journal] (a path) is truncated unless [resume]
    (default [false]), which replays it first and appends. [transient]
    tasks share the pool but are never probed, stored or journaled.
    [on_done] is the pool's progress hook, called after persisting.

    @raise Invalid_argument
      if two tasks share a key, before anything is opened or run. *)
