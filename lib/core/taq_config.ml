type epoch_source =
  | Estimated of {
      default_epoch : float;
      min_epoch : float;
      max_epoch : float;
      alpha : float;
    }
  | Oracle of float

type admission = {
  pthresh : float;
  hysteresis : float;
  t_wait : float;
  pool_expiry : float;
  loss_alpha : float;
}

type guard = {
  trip_after : float;
  clear_after : float;
  min_dwell : float;
  recovery_dwell : float;
  waiting_high : int;
}

type t = {
  capacity_pkts : int;
  capacity_bps : float;
  recovery_share : float;
  overpenalize_drops : int;
  epoch_source : epoch_source;
  admission : admission option;
  flow_idle_timeout : float;
  max_tracked_flows : int;
  guard : guard option;
}

let newflow_cap t = Stdlib.max 2 (t.capacity_pkts / 4)
let slowstart_epochs = 3
let tick_interval = 0.05

let default_admission =
  {
    pthresh = 0.1;
    hysteresis = 0.02;
    t_wait = 2.5;
    pool_expiry = 60.0;
    loss_alpha = 0.005;
  }

let default_guard =
  {
    trip_after = 0.25;
    clear_after = 1.0;
    min_dwell = 1.0;
    recovery_dwell = 1.0;
    waiting_high = 64;
  }

let validate_guard g =
  if g.trip_after < 0.0 then invalid_arg "Taq_config.guard: trip_after";
  if g.clear_after <= 0.0 then invalid_arg "Taq_config.guard: clear_after";
  if g.min_dwell < 0.0 then invalid_arg "Taq_config.guard: min_dwell";
  if g.recovery_dwell < 0.0 then invalid_arg "Taq_config.guard: recovery_dwell";
  if g.waiting_high < 1 then invalid_arg "Taq_config.guard: waiting_high";
  g

let default ~capacity_pkts ~capacity_bps =
  if capacity_pkts < 1 then invalid_arg "Taq_config.default: capacity_pkts";
  if capacity_bps <= 0.0 then invalid_arg "Taq_config.default: capacity_bps";
  {
    capacity_pkts;
    capacity_bps;
    recovery_share = 0.25;
    (* §4.2's cumulative threshold. Flows already below their fair
       share are additionally protected after any single recent drop
       (§4.1) — see Taq_disc.classify. *)
    overpenalize_drops = 2;
    (* The 1 s cap keeps silence periods from polluting the burst-based
       estimate: epochs are RTTs, and RTTs beyond a second are outside
       the regimes TAQ serves. Ablations show the capped estimator
       matches an RTT oracle. *)
    epoch_source =
      Estimated
        { default_epoch = 0.2; min_epoch = 0.02; max_epoch = 1.0; alpha = 0.25 };
    admission = None;
    flow_idle_timeout = 120.0;
    (* Large enough that non-adversarial workloads never hit the cap;
       a real deployment sizes this to its memory budget. *)
    max_tracked_flows = 65536;
    guard = None;
  }

let with_admission ~capacity_pkts ~capacity_bps =
  { (default ~capacity_pkts ~capacity_bps) with admission = Some default_admission }

let with_guard ?(guard = default_guard) ~max_tracked_flows t =
  if max_tracked_flows < 1 then
    invalid_arg "Taq_config.with_guard: max_tracked_flows";
  { t with max_tracked_flows; guard = Some (validate_guard guard) }
