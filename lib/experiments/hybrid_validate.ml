module Link = Taq_net.Link
module Model = Taq_fluid.Model
module Source = Taq_fluid.Source
module Out = Taq_util.Out

type params = {
  queues : string list;
  capacity_bps : float;
  fg_flows : int;
  bg_flows : int;
  rtt : float;
  duration : float;
  buffer_rtts : float;
  dt : float;
  seed : int;
  jain_tol : float;
  drop_rel_tol : float;
  drop_floor : float;
}

let quick =
  {
    queues = [ "droptail" ];
    capacity_bps = 600e3;
    fg_flows = 8;
    bg_flows = 32;
    rtt = 0.2;
    duration = 60.0;
    buffer_rtts = 1.0;
    dt = 0.02;
    seed = 7;
    jain_tol = 0.20;
    drop_rel_tol = 0.40;
    drop_floor = 0.02;
  }

(* The full tier doubles the background population and stretches the
   horizon well into overload. Droptail agreement at this operating
   point depends on the reverse loss coupling: without it the
   foreground feels fluid congestion only as slowness, never as loss,
   and keeps a Jain index the packet reference loses to stochastic
   timeout lockouts. TAQ runs without the reverse filter (shielding
   small flows from shared-buffer overflow is its defining mechanism)
   and agrees in either case. *)
let default =
  {
    quick with
    queues = [ "droptail"; "taq" ];
    capacity_bps = 600e3;
    bg_flows = 60;
    duration = 200.0;
  }

type row = {
  queue : string;
  jain_packet : float;
  jain_hybrid : float;
  drop_packet : float;
  drop_hybrid : float;
  fluid_report : string;
  ok : bool;
  problems : string list;
}

(* Foreground Jain over the first fg_flows ids; both runs spawn the
   foreground cohort first, so the ids line up. *)
let foreground_jain env ids =
  Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids

let run_point p queue =
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps:p.capacity_bps ~rtt:p.rtt
      ~rtts:p.buffer_rtts
  in
  let q = Common.queue_of_disc ~capacity_bps:p.capacity_bps ~buffer_pkts queue in
  (* Reference: everyone is a real packet-level flow. *)
  let ref_env =
    Common.make_env ~queue:q ~capacity_bps:p.capacity_bps ~buffer_pkts
      ~seed:p.seed ()
  in
  let ref_ids =
    Common.spawn_long_flows ref_env ~n:(p.fg_flows + p.bg_flows) ~rtt:p.rtt
      ~rtt_jitter:0.1 ()
  in
  let fg_ref = Array.sub ref_ids 0 p.fg_flows in
  Common.run ref_env ~until:p.duration;
  let jain_packet = foreground_jain ref_env fg_ref in
  let drop_packet = Common.measured_loss_rate ref_env in
  (* Hybrid: the same foreground, background collapsed to fluid. *)
  let fluid_params =
    Model.make_params ~rtt_prop:p.rtt ~pkt_bytes:Common.pkt_bytes ~dt:p.dt
      ~n_flows:p.bg_flows ~capacity_bps:p.capacity_bps
      ~buffer_bytes:(buffer_pkts * Common.pkt_bytes)
      ()
  in
  let hyb_env =
    Common.make_env ~backend:(Common.Hybrid fluid_params) ~queue:q
      ~capacity_bps:p.capacity_bps ~buffer_pkts ~seed:p.seed ()
  in
  let source = Option.get hyb_env.Common.fluid in
  let fg_hyb =
    Common.spawn_long_flows hyb_env ~n:p.fg_flows ~rtt:p.rtt ~rtt_jitter:0.1 ()
  in
  Common.run hyb_env ~until:p.duration;
  let jain_hybrid = foreground_jain hyb_env fg_hyb in
  let drop_hybrid =
    let st = Link.stats (Taq_net.Dumbbell.link hyb_env.Common.net) in
    let m = Source.model source in
    let pkt_off = float_of_int (st.Link.offered * Common.pkt_bytes) in
    let pkt_drop = float_of_int (st.Link.dropped * Common.pkt_bytes) in
    let total = pkt_off +. Model.arrived_bytes m in
    if total <= 0.0 then 0.0
    else (pkt_drop +. Model.dropped_bytes m) /. total
  in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if Float.abs (jain_packet -. jain_hybrid) > p.jain_tol then
    note "Jain disagrees: packet=%.3f hybrid=%.3f (tol %.2f)" jain_packet
      jain_hybrid p.jain_tol;
  let drop_allowed = Float.max p.drop_floor (p.drop_rel_tol *. drop_packet) in
  if Float.abs (drop_packet -. drop_hybrid) > drop_allowed then
    note "drop rate disagrees: packet=%.4f hybrid=%.4f (allowed %.4f)"
      drop_packet drop_hybrid drop_allowed;
  {
    queue;
    jain_packet;
    jain_hybrid;
    drop_packet;
    drop_hybrid;
    fluid_report = Source.report source;
    ok = !problems = [];
    problems = List.rev !problems;
  }

let run p = List.map (run_point p) p.queues

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [ "queue"; "jain_pkt"; "jain_hyb"; "drop_pkt"; "drop_hyb"; "verdict" ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.queue;
          Printf.sprintf "%.3f" r.jain_packet;
          Printf.sprintf "%.3f" r.jain_hybrid;
          Printf.sprintf "%.4f" r.drop_packet;
          Printf.sprintf "%.4f" r.drop_hybrid;
          (if r.ok then "agree" else "DISAGREE");
        ])
    rows;
  Taq_util.Table.print table;
  Out.newline ();
  List.iter
    (fun r ->
      Out.printf "%s: %s\n" r.queue r.fluid_report;
      List.iter (fun m -> Out.printf "  problem: %s\n" m) r.problems)
    rows
