(** [BENCH.json] documents and the bench-regression gate.

    The bench harness writes one {!target} per figure target:
    wall-clock seconds (noisy), deterministic {!Obs} counters/gauges
    (exact under fixed seeds) and GC minor words (noisy). The gate
    ({!diff}) fails when any deterministic counter drifts {e at all}
    against a committed baseline, and — only when a tolerance is
    supplied — when wall-clock regresses beyond it. CI runs the gate
    counters-only so it never flakes on machine speed. *)

type target = {
  name : string;
  seconds : float;
  events_per_sec : float;
      (** executed simulator events per wall-clock second — the
          machine-speed-normalised throughput line ([Events_executed]
          over [seconds]); noisy, gated only behind the tolerance *)
  counters : (string * int) list;
  gauges : (string * int) list;
  gc_minor_words : float;
}

type bench = { scale : string; jobs : int; targets : target list }

val make_target :
  name:string -> seconds:float -> snapshot:Obs.snapshot -> target

(** Targets are emitted sorted by name (their counters and gauges are
    already name-sorted), making serialized documents canonical: two
    baselines diff cleanly whatever order the targets ran in. *)
val to_json : bench -> Json.t
val of_string : string -> (bench, string) result
val load : path:string -> (bench, string) result
val save : path:string -> bench -> unit

val diff :
  ?tolerance_pct:float ->
  known:string list ->
  baseline:bench ->
  current:bench ->
  unit ->
  (string list, string list) result
(** [Ok notes] when every baseline target present in [current] matches
    it exactly on counters and gauges (missing keys count as 0) and,
    when [tolerance_pct] is given, the noisy measurements stay within
    the slack: seconds and GC minor words at most
    [baseline * (1 + pct/100)], events/sec at least
    [baseline / (1 + pct/100)] (throughput regresses downward).
    [Error failures] otherwise. A scale mismatch (quick vs full) is a
    failure. A baseline target that was not run is only a note when it
    is in [known] (the targets this build can run) and a failure
    otherwise: a stale entry for a deleted target would be gated by
    nothing. *)

val compare_files :
  ?tolerance_pct:float ->
  known:string list ->
  baseline_path:string ->
  current_path:string ->
  unit ->
  (string list, string list) result
