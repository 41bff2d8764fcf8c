(** Deterministic steady-state / recovery monitor.

    Samples rolling windows of three health metrics on the bottleneck
    — Jain fairness over per-flow delivered bytes, drop rate (a
    window's drops over the larger of its arrivals and its drops, so
    a window whose drops exceed its arrivals counts as total loss),
    and queue occupancy — via [Sim.every], so the sample clock interleaves
    with packet events like any other calendar entry and the whole
    trajectory is byte-reproducible at any [--jobs] count.

    Against the active fault plan it reports, per metric:

    - the {b baseline}: the mean of all samples taken at or before the
      plan's first injection instant ([Plan.first_start]), frozen at
      the first tick past it;
    - the {b peak deviation} from baseline over ticks whose window
      overlaps any clause's fault span ([Plan.spans]);
    - the {b time to recover}: after the plan clears ([Plan.horizon]),
      the first instant from which [sustain] consecutive samples stay
      within the metric's tolerance of baseline, reported relative to
      the clear instant — or [No_recovery] when the run ends first.

    The monitor is read-only: it draws no randomness and perturbs no
    queue, so attaching it never changes the simulated trajectory. *)

type t

type recovery =
  | Recovered of float  (** seconds after the plan cleared *)
  | No_recovery  (** horizon ended before a sustained return *)
  | Not_applicable
      (** no faults, the plan never clears (stationary loss), or the
          run ended before the baseline froze *)

type row = {
  metric : string;  (** "jain" | "drop_rate" | "occupancy" *)
  baseline : float;  (** nan when no sample was taken *)
  peak_dev : float;  (** nan until the baseline froze *)
  recovery : recovery;
}

val metric_names : string array
(** [[|"jain"; "drop_rate"; "occupancy"|]] — row order of {!rows}. *)

val create :
  ?params:Policy.params ->
  check:Taq_check.Check.t ->
  obs:Taq_obs.Obs.t ->
  sim:Taq_engine.Sim.t ->
  link:Taq_net.Link.t ->
  plan:Taq_fault.Plan.t ->
  unit ->
  t
(** Build a monitor for [link] under [plan]. Nothing is scheduled yet
    — call {!arm}. [check]'s [Resil] group verifies a strictly
    monotone sample clock, in-range samples, and that the baseline
    froze before the first injection (when the plan leaves room for
    one). *)

val arm : t -> until:float -> unit
(** Schedule the sampling ticker ([period], [2·period], … up to
    [until]). First call wins; later calls are no-ops, so embedders
    may arm defensively. *)

val note_delivery : t -> flow:int -> bytes:int -> unit
(** Credit [bytes] delivered to [flow] in the current window — feed
    this from the receive path (the experiment harness wires it to
    [Tcp_receiver.on_segment]). *)

val rows : t -> row list
(** Per-metric results, in {!metric_names} order. Finalizes the
    monitor (idempotent): emits the [resil.*] observability counters
    ([resil.samples], [resil.recovered.<m>] / [resil.no_recovery.<m>],
    [resil.recover_ms.<m>] gauges, [resil.baseline_missed]). *)

val samples : t -> int
val params : t -> Policy.params

val recovery_to_string : recovery -> string
(** ["%.2f"] seconds, ["no_recovery"], or ["-"]. *)

val row_line : ?prefix:string -> row -> string
(** [row_line ~prefix r] is
    ["<prefix>metric=... baseline=... peak_dev=... recover_s=..."]
    with floats as [%.6f] (["-"] for nan); [prefix] defaults to
    ["resil "]. Embedders put cell coordinates in the prefix. *)
