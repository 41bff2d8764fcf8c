(** Sweep orchestration: the points of [taq_sim sweep] (the classic
    capacity × fair-share grid and the disc × tcp × workload × fault
    matrix) and of [taq_sim faults], as keyed harness tasks.

    {!key} is the one function that turns a point into its task key.
    The key folds in every parameter that affects the point's output,
    and it is at once the cache address, the journal name and the seed
    source, so two points share a key iff they print the same report. *)

type backend_spec = {
  kind : [ `Packet | `Hybrid ];
  bg_flows : int;  (** hybrid: flows in the fluid aggregate *)
  fluid_dt : float;  (** hybrid: fluid integration step, seconds *)
}
(** A backend request, resolved per point (it depends on capacity and
    buffer). *)

val resolve_backend :
  backend_spec -> rtt:float -> capacity_bps:float -> buffer_pkts:int ->
  Common.backend

type setting = {
  rtt : float;
  duration : float;
  buffer_rtts : float;
  faults : Taq_fault.Plan.t option;
  guard : int option;  (** TAQ overload-guard tracker cap *)
  resil : Taq_resil.Policy.params option;
  backend : backend_spec;
}
(** What every point of a classic grid shares. *)

type _ point =
  | Classic : {
      queue : string;  (** a {!Common.disc_names} entry *)
      capacity : float;
      fair_share : float;
      rep : int;
      setting : setting;
    }
      -> string point
  | Cell : {
      disc : string;
      tcp : string;
      workload : string;
      fault : string;
      guard : int option;
    }
      -> string point  (** a {!Matrix} cell *)
  | Drill : { scenario : Taq_fault.Scenarios.t; queue : string }
      -> Fault_drill.outcome point
(** Classic points and cells compute their report text. *)

val key : _ point -> string
(** ["sweep/v1/queue=Q/cap=C/fs=F/rtt=R/dur=D/buf=B/rep=N"] plus
    [/faults=], [/guard=], [/resil=] and [/backend=hybrid/fluid=]
    suffixes when set; ["matrix/v1/disc=D/tcp=T/wl=W"] plus
    [/fault=F] (omitted for [none]) and [/guard=];
    ["faults/v1/SCENARIO/queue=Q"]. *)

val task : 'a point -> 'a Taq_harness.Task.t
(** The point as a task under its {!key}. Runs take their fault plan
    and resilience parameters from the point, not from ambient
    policies. *)

val grid :
  setting ->
  queues:string list ->
  capacities:float list ->
  fair_shares:float list ->
  reps:int ->
  string point list
(** Queue-major; [queues = []] means droptail and taq. *)

val matrix :
  discs:string list ->
  tcps:string list ->
  workloads:string list ->
  faults:string list ->
  guard:int option ->
  (string point list, string) result
(** Disc-major, checked by {!Matrix.validate}; [discs = []] means
    {!Matrix.disc_names}. *)

val drills :
  scenarios:Taq_fault.Scenarios.t list ->
  queues:string list ->
  (Fault_drill.outcome point list, string) result
(** Scenario-major; restart-only plans drill TAQ only. [Error] on
    [taq+ac]: the drill takes TAQ's admission setting from the plan
    (flood plans turn it on). *)

val matrix_report : string list -> Taq_util.Table.t
(** The merged per-cell table (Jain, drop rate, utilization,
    completions, per-metric recovery times) from cell outputs. *)
