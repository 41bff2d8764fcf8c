type epoch_source = Estimated | Oracle of float

type t = {
  capacity_pkts : int;
  capacity_bps : float;
  recovery_share : float;
  overpenalize_drops : int;
  epoch_source : epoch_source;
  admission : float option;
  max_tracked_flows : int;
  guard : bool;
}

let newflow_cap t = Stdlib.max 2 (t.capacity_pkts / 4)
let slowstart_epochs = 3
let tick_interval = 0.05

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
    epoch_source = Estimated;
    admission = None;
    (* Large enough that non-adversarial workloads never hit the cap;
       a real deployment sizes this to its memory budget. *)
    max_tracked_flows = 65536;
    guard = false;
  }

let with_admission ~capacity_pkts ~capacity_bps =
  { (default ~capacity_pkts ~capacity_bps) with admission = Some 0.1 }

let with_guard ~max_tracked_flows t =
  if max_tracked_flows < 1 then
    invalid_arg "Taq_config.with_guard: max_tracked_flows";
  { t with max_tracked_flows; guard = true }
