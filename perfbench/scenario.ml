(* The four benchmark workloads, each built from the simulator's public
   library functions. A workload's [setup] builds everything a run
   needs (the set-up phase); the returned [run] executes the engine and
   [analyze] makes the post-run queries. Layers are read from outside:
   [Link.stats], [Taq_disc.stats], the public [Flow_tracker] queries,
   [Tcp_sender.stats] of the sessions this module holds, and the obs
   counters when [obs_on]. *)

module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Link = Taq_net.Link
module Droptail = Taq_queueing.Droptail
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_sender = Taq_tcp.Tcp_sender
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Taq_config = Taq_core.Taq_config
module Taq_disc = Taq_core.Taq_disc
module Flow_tracker = Taq_core.Flow_tracker
module Taq_queues = Taq_core.Taq_queues
module Web_session = Taq_workload.Web_session
module Trace = Taq_workload.Trace
module Object_size = Taq_workload.Object_size
module Slicer = Taq_metrics.Slicer
module Hangs = Taq_metrics.Hangs
module Matrix = Taq_experiments.Matrix
module Check = Taq_check.Check
module Obs = Taq_obs.Obs
module Prng = Taq_util.Prng
module Stats = Taq_util.Stats

type opts = {
  check_on : bool;  (** every check group on, violations raise *)
  obs_on : bool;  (** obs counters on *)
  timer : Timed_disc.t option;  (** the disc timing wrapper *)
  spans : Spans.t option;
}

let span opts name f =
  match opts.spans with None -> f () | Some s -> Spans.with_span s name f

type outcome = {
  jain_short : float;
  link_util : float;
  hang : (float * float) option;  (** p50, p90 of each user's longest hang *)
  fct : Pct.t option;  (** object download times *)
  fetches : (int * int) option;  (** failed, attempted *)
}

type built = {
  run : between:(unit -> unit) -> unit;
      (** the engine run, in segments with [between] called between
          them; the simulated trajectory does not depend on the split *)
  analyze : unit -> outcome;
  verify : unit -> (unit, string) result list;
      (** post-run correctness checks, one result per check *)
  layers : unit -> (string * float) list;
  ops : int;  (** operations this repeat attempts *)
}

type workload = {
  name : string;
  default_check : bool;  (** the workload runs with every check on *)
  default_obs : bool;
  setup : opts -> seed:int -> built;
}

let pkt_bytes = Tcp_config.packet_bytes Tcp_config.default
let slice = 20.0
let segments = 8

(* Sim.run to [horizon] in equal segments: stopping at a time and
   resuming executes exactly the events one uninterrupted run would. *)
let run_segmented sim ~horizon ~between =
  for i = 1 to segments do
    Sim.run ~until:(horizon *. float_of_int i /. float_of_int segments) sim;
    if i < segments then between ()
  done

(* --- shared plumbing ---------------------------------------------------- *)

type net = {
  sim : Sim.t;
  net : Dumbbell.t;
  taq : Taq_disc.t option;
  check : Check.t;
  obs : Obs.t;
  drops_seen : int ref;  (** drop-listener count, cross-checks Link.stats *)
}

let make_net opts ~capacity_bps ~buffer_pkts ~taq_config =
  let check =
    if opts.check_on then Check.create ~mode:Check.Raise () else Check.off
  in
  let obs = if opts.obs_on then Obs.create () else Obs.off in
  let sim = Sim.create ~check ~obs () in
  let taq, disc =
    match taq_config with
    | Some config ->
        let t = Taq_disc.create ~sim ~config () in
        (Some t, Taq_disc.disc t)
    | None -> (None, Droptail.create ~capacity_pkts:buffer_pkts)
  in
  (* The timer sits innermost, so disc.self_s is the discipline's own
     time; the obs counter wrapper (a no-op when obs is off) goes
     outside it, as in the experiment environments. *)
  let disc =
    match opts.timer with Some tm -> Timed_disc.wrap tm disc | None -> disc
  in
  let disc = Taq_queueing.Observed.wrap ~obs disc in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let drops_seen = ref 0 in
  Link.on_drop (Dumbbell.link net) (fun _ -> incr drops_seen);
  { sim; net; taq; check; obs; drops_seen }

(* offered = transmitted + dropped + queued + (at most one on the wire;
   exactly one when packets are queued, the transmitter being
   work-conserving). *)
let conservation n =
  let link = Dumbbell.link n.net in
  let s = Link.stats link in
  let queued = Link.queue_length link in
  let on_wire =
    s.Link.offered - s.Link.transmitted - s.Link.dropped - queued
  in
  if (queued > 0 && on_wire <> 1) || on_wire < 0 || on_wire > 1 then
    Error
      (Printf.sprintf
         "link conservation: offered=%d transmitted=%d dropped=%d queued=%d"
         s.Link.offered s.Link.transmitted s.Link.dropped queued)
  else if !(n.drops_seen) <> s.Link.dropped then
    Error
      (Printf.sprintf "link drops: stats say %d, drop listener saw %d"
         s.Link.dropped !(n.drops_seen))
  else Ok ()

let check_range name ~lo ~hi v =
  if v >= lo && v <= hi then Ok ()
  else Error (Printf.sprintf "%s=%g outside [%g, %g]" name v lo hi)

let verify_outcome o =
  [
    check_range "jain_short" ~lo:0.0 ~hi:1.0 o.jain_short;
    check_range "link_util" ~lo:0.0 ~hi:1.0 o.link_util;
  ]
  @ (match o.fetches with
    | Some (failed, attempted) when failed < 0 || failed > attempted ->
        [ Error (Printf.sprintf "fetches: %d failed of %d" failed attempted) ]
    | _ -> [])
  @
  match o.fct with
  | Some p when not (p.Pct.median >= 0.0) ->
      [ Error (Printf.sprintf "negative download time %g" p.Pct.median) ]
  | _ -> []

let f = float_of_int

let net_layers n =
  let s = Link.stats (Dumbbell.link n.net) in
  [
    ("net.offered", f s.Link.offered);
    ("net.transmitted", f s.Link.transmitted);
    ("net.dropped", f s.Link.dropped);
    ( "net.delivered_ratio",
      f s.Link.transmitted /. f (max 1 s.Link.offered) );
  ]

let obs_layers snap =
  let c name = f (Obs.counter_value snap name) in
  [
    ("engine.events_executed", c "sim.events_executed");
    ("engine.events_scheduled", c "sim.events_scheduled");
    ("engine.events_skipped", c "sim.events_skipped");
    ("engine.heap_push", c "sim.heap_push");
    ("engine.heap_max_depth", f (Obs.gauge_value snap "sim.heap_max_depth"));
    ("core.flows_created", c "tracker.flows_created");
    ("core.evictions", c "tracker.evictions");
  ]

let taq_layers t =
  let s = Taq_disc.stats t in
  let tracker = Taq_disc.tracker t in
  [
    ("core.peak_tracked", f (Flow_tracker.peak_tracked tracker));
    ("core.active_flows_end", f (Flow_tracker.active_flow_count tracker));
    ("core.admission_rejected", f s.Taq_disc.admission_rejected);
    ("core.forced_recovery_drops", f s.Taq_disc.forced_recovery_drops);
  ]
  @ List.map
      (fun (cls, n) -> ("core.drops." ^ Taq_queues.class_to_string cls, f n))
      s.Taq_disc.drops_by_class

let common_layers n =
  net_layers n
  @ (if Obs.enabled n.obs then obs_layers (Obs.snapshot n.obs) else [])
  @ (match n.taq with Some t -> taq_layers t | None -> [])
  @
  if Check.on n.check Check.Engine then
    [
      ("check.checks_run", f (Check.total_checks n.check));
      ("check.violations", f (Check.total_violations n.check));
    ]
  else []

let utilization n = Link.utilization (Dumbbell.link n.net)

let p50_p90 xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (Pct.nearest_rank sorted 50.0, Pct.nearest_rank sorted 90.0)

(* --- web sessions (taq-pools, taq-churn) ---------------------------------- *)

(* Mean over complete slices (the warm-up slice skipped) of the Jain
   index of per-user goodput, over the users with a fetch outstanding
   in that slice; an outstanding user that got nothing counts as 0. *)
let users_jain ~slicer ~horizon users =
  let slices = int_of_float (horizon /. slice) in
  let per_slice =
    List.filter_map
      (fun i ->
        let lo = f i *. slice and hi = f (i + 1) *. slice in
        let outstanding (fetches, _) =
          List.exists
            (fun (x : Web_session.fetch) ->
              x.requested_at < hi
              && (Float.is_nan x.finished_at || x.finished_at > lo))
            fetches
        in
        let bytes (_, flows) =
          List.fold_left
            (fun acc flow -> acc + Slicer.bytes_in_slice slicer ~slice:i ~flow)
            0 flows
        in
        match List.filter outstanding users with
        | [] -> None
        | active ->
            Some
              (Stats.jain_index
                 (Array.of_list (List.map (fun u -> f (bytes u)) active))))
      (List.init (max 0 (slices - 1)) (fun i -> i + 1))
  in
  Stats.mean (Array.of_list per_slice)

type web_count = Started | Requested

let web_outcome n ~sessions ~slicer ~hangs ~horizon ~count =
  let users =
    Array.to_list
      (Array.map
         (fun s -> (Web_session.fetches s, Web_session.flow_ids s))
         sessions)
  in
  let completed =
    List.concat_map Web_session.completed (Array.to_list sessions)
  in
  let times =
    Array.of_list
      (List.map
         (fun (x : Web_session.fetch) -> x.finished_at -. x.started_at)
         completed)
  in
  let done_ = List.length completed in
  let attempted =
    List.fold_left
      (fun acc (fetches, flows) ->
        acc
        +
        match count with
        | Started -> List.length flows
        | Requested -> List.length fetches)
      0 users
  in
  {
    jain_short = users_jain ~slicer ~horizon users;
    link_util = utilization n;
    hang =
      Option.map
        (fun h ->
          p50_p90
            (Array.map
               (fun s ->
                 Hangs.max_hang h ~pool:(Web_session.pool s) ~until:horizon)
               sessions))
        hangs;
    fct = (if times = [||] then None else Some (Pct.summarize times));
    fetches = Some (attempted - done_, attempted);
  }

let web_layers sessions =
  let sum g = f (Array.fold_left (fun acc s -> acc + g s) 0 sessions) in
  [
    ( "workload.fetches_requested",
      sum (fun s -> List.length (Web_session.fetches s)) );
    ( "workload.fetches_completed",
      sum (fun s -> List.length (Web_session.completed s)) );
    ( "workload.conns_opened",
      sum (fun s -> List.length (Web_session.flow_ids s)) );
  ]

(* --- taq-pools ----------------------------------------------------------- *)

(* Section 2.3's hang scenario: closed-loop users, each a 4-connection
   browser with an endless backlog of fixed-size objects, over 1 Mbps,
   200 ms RTT and one RTT of buffer. TAQ without admission control. *)
module Pools = struct
  let users = 100
  let conns = 4
  let capacity_bps = 1e6
  let rtt = 0.2
  let object_segments = 30
  let backlog = 1000
  let start_window = 10.0
  let horizon = 120.0
end

let taq_pools opts ~seed =
  let open Pools in
  let buffer_pkts = Droptail.capacity_for_rtt ~capacity_bps ~rtt ~pkt_bytes in
  let n =
    make_net opts ~capacity_bps ~buffer_pkts
      ~taq_config:
        (Some (Taq_config.default ~capacity_pkts:buffer_pkts ~capacity_bps))
  in
  let tcp = Tcp_config.make ~use_syn:true () in
  let object_bytes = object_segments * tcp.Tcp_config.mss in
  let hangs = Hangs.create () and slicer = Slicer.create ~slice in
  let prng = Prng.create ~seed in
  let sessions =
    Array.init users (fun user ->
        let s =
          Web_session.create ~net:n.net ~tcp ~pool:user ~rtt ~max_conns:conns
            ~hangs ~slicer ()
        in
        for _ = 1 to backlog do
          Web_session.request s ~size:object_bytes
        done;
        let at = Prng.float prng start_window in
        ignore (Sim.schedule n.sim ~at (fun () -> Web_session.start s));
        s)
  in
  {
    run = run_segmented n.sim ~horizon;
    analyze =
      (fun () ->
        web_outcome n ~sessions ~slicer ~hangs:(Some hangs) ~horizon
          ~count:Started);
    verify = (fun () -> [ conservation n ]);
    layers = (fun () -> common_layers n @ web_layers sessions);
    ops = users;
  }

(* --- droptail-long ------------------------------------------------------- *)

(* Long-lived NewReno flows through a droptail FIFO at a fair share of
   a few packets per RTT. Propagation RTTs are jittered around the mean
   by stratified sampling (one flow per equal-width RTT band, placed
   at random within it), so every seed sees the same RTT spread; flows
   start at random offsets within the first second. *)
module Long = struct
  let flows = 60
  let capacity_bps = 4e6
  let rtt = 0.2
  let rtt_jitter = 0.5
  let horizon = 480.0
end

let droptail_long opts ~seed =
  let open Long in
  let buffer_pkts = Droptail.capacity_for_rtt ~capacity_bps ~rtt ~pkt_bytes in
  let n = make_net opts ~capacity_bps ~buffer_pkts ~taq_config:None in
  let tcp = Tcp_config.make ~use_syn:false () in
  let slicer = Slicer.create ~slice in
  (* Each flow's longest stall, kept in O(1) per flow: the Hangs
     recorder would hold every inter-arrival gap of these long flows. *)
  let last_data = Array.make flows 0.0 and longest = Array.make flows 0.0 in
  let prng = Prng.create ~seed in
  let sessions =
    Array.init flows (fun i ->
        let band = (f i +. Prng.float prng 1.0) /. f flows in
        let rtt_prop =
          rtt *. (1.0 -. rtt_jitter +. (2.0 *. rtt_jitter *. band))
        in
        let s =
          Tcp_session.create ~net:n.net ~config:tcp ~rtt_prop
            ~total_segments:max_int ()
        in
        let flow = Tcp_session.flow_id s in
        Tcp_receiver.on_segment (Tcp_session.receiver s) (fun _ ->
            let time = Sim.now n.sim in
            longest.(i) <- Float.max longest.(i) (time -. last_data.(i));
            last_data.(i) <- time;
            Slicer.record slicer ~flow ~time ~bytes:pkt_bytes);
        let at = Prng.float prng 1.0 in
        ignore (Sim.schedule n.sim ~at (fun () -> Tcp_session.start s));
        s)
  in
  let ids = Array.map Tcp_session.flow_id sessions in
  let slices = int_of_float (horizon /. slice) in
  {
    run = run_segmented n.sim ~horizon;
    analyze =
      (fun () ->
        {
          jain_short =
            Slicer.mean_jain slicer ~flows:ids ~first:1 ~last:(slices - 1) ();
          link_util = utilization n;
          hang =
            Some
              (p50_p90
                 (Array.mapi
                    (fun i last -> Float.max longest.(i) (horizon -. last))
                    last_data));
          fct = None;
          fetches = None;
        });
    verify = (fun () -> [ conservation n ]);
    layers =
      (fun () ->
        let sum g =
          Array.fold_left
            (fun acc s -> acc + g (Tcp_sender.stats (Tcp_session.sender s)))
            0 sessions
        in
        let data = sum (fun s -> s.Tcp_sender.data_sent) in
        let retx = sum (fun s -> s.Tcp_sender.retx_sent) in
        common_layers n
        @ [
            ("tcp.data_sent", f data);
            ("tcp.retx_sent", f retx);
            ("tcp.timeouts", f (sum (fun s -> s.Tcp_sender.timeouts)));
            ( "tcp.fast_retransmits",
              f (sum (fun s -> s.Tcp_sender.fast_retransmits)) );
            ("tcp.retx_ratio", f retx /. f (max 1 data));
          ]);
    ops = flows;
  }

(* --- taq-churn ----------------------------------------------------------- *)

(* An open-loop replay of a generated proxy trace: every object is its
   own HTTP/1.0 flow, requested at its trace time whether or not the
   client's earlier fetches finished. TAQ with admission control. *)
module Churn = struct
  let clients = 400
  let capacity_bps = 1e6
  let rtt = 0.2
  let conns = 4
  let horizon = 200.0

  let params =
    {
      Trace.clients;
      duration = horizon;
      mean_think = 90.0;
      objects_per_page_max = 2;
      size_params =
        { Object_size.default with Object_size.max_bytes = 100_000 };
    }
end

let taq_churn opts ~seed =
  let open Churn in
  let trace, gen_s =
    Clock.time (fun () ->
        span opts "trace.generate" (fun () -> Trace.generate ~params ~seed ()))
  in
  let buffer_pkts = Droptail.capacity_for_rtt ~capacity_bps ~rtt ~pkt_bytes in
  let n =
    make_net opts ~capacity_bps ~buffer_pkts
      ~taq_config:
        (Some (Taq_config.with_admission ~capacity_pkts:buffer_pkts ~capacity_bps))
  in
  let tcp = Tcp_config.make ~use_syn:true ~syn_retry_doubling:false () in
  let slicer = Slicer.create ~slice in
  let sessions =
    Array.init clients (fun client ->
        Web_session.create ~net:n.net ~tcp ~pool:client ~rtt ~max_conns:conns
          ~slicer ())
  in
  Array.iter Web_session.start sessions;
  Array.iter
    (fun (r : Trace.record) ->
      let s = sessions.(r.client) in
      ignore
        (Sim.schedule n.sim ~at:r.time (fun () ->
             Web_session.request s ~size:r.size)))
    trace;
  {
    run = run_segmented n.sim ~horizon;
    analyze =
      (fun () ->
        web_outcome n ~sessions ~slicer ~hangs:None ~horizon ~count:Requested);
    verify = (fun () -> [ conservation n ]);
    layers =
      (fun () ->
        (("workload.gen_s", gen_s) :: common_layers n) @ web_layers sessions);
    ops = Array.length trace;
  }

(* --- matrix-checked ------------------------------------------------------ *)

(* The default sweep --matrix cells, run in-process through
   Matrix.run_cell under the ambient check/obs policies. *)
module Cells = struct
  let tcps = [ "newreno"; "cubic" ]
  let mice_per_cell = 24
end

let set_policies ~check_on ~obs_on =
  Check.set_policy ~mode:Check.Raise
    ~groups:(if check_on then Check.all_groups else [])
    ();
  match Obs.policy_of_spec (if obs_on then "counters" else "off") with
  | Ok p -> Obs.set_policy p
  | Error e -> failwith e

let matrix_checked opts ~seed =
  let prng = Prng.create ~seed in
  let cells =
    List.concat_map
      (fun disc ->
        List.concat_map
          (fun tcp ->
            List.concat_map
              (fun workload ->
                List.map
                  (fun fault ->
                    (match Matrix.validate ~fault ~disc ~tcp ~workload () with
                    | Ok () -> ()
                    | Error e -> failwith e);
                    (disc, tcp, workload, fault, Prng.int prng 0x3FFF_FFFF))
                  Matrix.default_fault_axis)
              Matrix.workload_names)
          Cells.tcps)
      Matrix.disc_names
  in
  let text = ref "" and snap = ref Obs.empty_snapshot and cell_s = ref 0.0 in
  let per_segment = (List.length cells + segments - 1) / segments in
  let run ~between =
    set_policies ~check_on:opts.check_on ~obs_on:opts.obs_on;
    let (captured, ()), s =
      Obs.collecting (fun () ->
          Taq_util.Out.with_buffer (fun () ->
              List.iteri
                (fun i (disc, tcp, workload, fault, seed) ->
                  if i > 0 && i mod per_segment = 0 then between ();
                  let name =
                    String.concat "/" [ "cell"; disc; tcp; workload; fault ]
                  in
                  let (), dt =
                    Clock.time (fun () ->
                        span opts name (fun () ->
                            Matrix.run_cell ~disc ~tcp ~workload ~fault ~seed ()))
                  in
                  cell_s := !cell_s +. dt)
                cells))
    in
    text := captured;
    snap := s
  in
  let parsed () = Matrix.cells_of_output !text in
  let num fields k = float_of_string (List.assoc k fields) in
  {
    run;
    analyze =
      (fun () ->
        let rows = Array.of_list (parsed ()) in
        let mean k = Stats.mean (Array.map (fun r -> num r k) rows) in
        let mice =
          List.filter (fun r -> List.assoc "wl" r = "mice") (Array.to_list rows)
        in
        let attempted = Cells.mice_per_cell * List.length mice in
        let completed =
          List.fold_left
            (fun acc r -> acc + int_of_string (List.assoc "completed" r))
            0 mice
        in
        {
          jain_short = mean "jain";
          link_util = mean "util";
          hang = None;
          fct = None;
          fetches = Some (attempted - completed, attempted);
        });
    verify =
      (fun () ->
        let rows = parsed () in
        let c name = Obs.counter_value !snap name in
        let residual =
          c "link.offered" - c "link.transmitted" - c "link.dropped"
        in
        [
          (if List.length rows = List.length cells then Ok ()
           else
             Error
               (Printf.sprintf "matrix: %d cell lines for %d cells"
                  (List.length rows) (List.length cells)));
          (* Per-cell conservation is the Net check group's job (it
             raises); across cells the counters can only leave a
             bounded residue queued or on the wire. *)
          (if
             (not opts.obs_on)
             || (residual >= 0 && residual <= List.length cells * 26)
           then Ok ()
           else
             Error (Printf.sprintf "matrix link counters: residual %d" residual));
        ]);
    layers =
      (fun () ->
        let s = !snap in
        let c name = f (Obs.counter_value s name) in
        let classes =
          List.map
            (fun cls ->
              let name = Taq_queues.class_to_string cls in
              ("core.drops." ^ name, c ("taq.drop." ^ name)))
            Taq_queues.all_classes
        in
        [
          ("net.offered", c "link.offered");
          ("net.transmitted", c "link.transmitted");
          ("net.dropped", c "link.dropped");
          ("net.delivered_ratio", c "link.transmitted" /. Float.max 1.0 (c "link.offered"));
          ("core.admission_rejected", c "taq.admission_rejected");
          ("matrix.cells_s", !cell_s);
        ]
        @ (if opts.obs_on then obs_layers s else [])
        @ classes);
    ops = List.length cells;
  }

let all =
  [
    { name = "taq-pools"; default_check = false; default_obs = false; setup = taq_pools };
    { name = "droptail-long"; default_check = false; default_obs = false; setup = droptail_long };
    { name = "taq-churn"; default_check = false; default_obs = false; setup = taq_churn };
    { name = "matrix-checked"; default_check = true; default_obs = true; setup = matrix_checked };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
