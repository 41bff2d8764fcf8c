type params = {
  queues : string list;
  capacities_bps : float list;
  fair_shares_bps : float list;
  rtt : float;
  rtt_jitter : float;
  duration : float;
  slice : float;
  buffer_rtts : float;
  use_syn : bool;
  tcp_override : Taq_tcp.Tcp_config.t option;
      (* replaces the default NewReno stack when set (e.g. CUBIC) *)
  seeds : int list;  (* fairness averaged over these runs *)
}

(* The paper quotes fair shares against an RTT of ~400 ms including
   queueing; propagation is 200 ms and one RTT of buffering roughly
   doubles it under load. *)
let default =
  {
    queues = [ "droptail" ];
    capacities_bps = [ 200e3; 400e3; 600e3; 800e3; 1000e3 ];
    fair_shares_bps = [ 2e3; 4e3; 7e3; 10e3; 15e3; 20e3; 30e3; 40e3; 50e3 ];
    rtt = 0.2;
    rtt_jitter = 0.1;
    duration = 400.0;
    slice = 20.0;
    buffer_rtts = 1.0;
    use_syn = false;
    tcp_override = None;
    seeds = [ 11; 12 ];
  }

let quick =
  {
    default with
    capacities_bps = [ 200e3; 600e3; 1000e3 ];
    fair_shares_bps = [ 4e3; 10e3; 20e3; 40e3 ];
    duration = 200.0;
    seeds = [ 11 ];
  }

let testbed =
  {
    default with
    queues = [ "droptail"; "taq" ];
    capacities_bps = [ 600e3; 1000e3 ];
    fair_shares_bps = [ 4e3; 7e3; 10e3; 15e3; 20e3; 30e3; 40e3; 50e3 ];
    use_syn = true;
    duration = 300.0;
  }

type row = {
  queue : string;
  capacity_bps : float;
  flows : int;
  fair_share_bps : float;
  jain_short : float;
  jain_long : float;
  utilization : float;
  loss_rate : float;
}

let run_seed p ~queue ~capacity_bps ~fair_share_bps ~seed =
  let n = Common.flows_for_fair_share ~capacity_bps ~fair_share_bps in
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps ~rtt:p.rtt ~rtts:p.buffer_rtts
  in
  let q = Common.queue_of_disc ~capacity_bps ~buffer_pkts queue in
  let env =
    Common.make_env ~queue:q ~capacity_bps ~buffer_pkts ~slice:p.slice ~seed ()
  in
  let tcp =
    match p.tcp_override with
    | Some tcp -> tcp
    | None ->
        if p.use_syn then Taq_tcp.Tcp_config.make ~use_syn:true ()
        else Common.default_tcp
  in
  let flows =
    Common.spawn_long_flows env ~tcp ~n ~rtt:p.rtt ~rtt_jitter:p.rtt_jitter ()
  in
  Common.run env ~until:p.duration;
  {
    queue;
    capacity_bps;
    flows = n;
    fair_share_bps;
    (* Skip the first slice: slow-start transient. *)
    jain_short = Taq_metrics.Slicer.mean_jain env.Common.slicer ~flows ~first:1 ();
    jain_long = Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows;
    utilization = Common.utilization env;
    loss_rate = Common.measured_loss_rate env;
  }

(* Each point is the mean over the configured seeds (single-seed runs
   of 20 s slices are noisy). *)
let run_one p ~queue ~capacity_bps ~fair_share_bps =
  let rows =
    List.map
      (fun seed -> run_seed p ~queue ~capacity_bps ~fair_share_bps ~seed)
      p.seeds
  in
  match rows with
  | [] -> invalid_arg "Fig_fairness.run: seeds must be non-empty"
  | first :: _ ->
      let mean f =
        Taq_util.Stats.mean (Array.of_list (List.map f rows))
      in
      {
        first with
        jain_short = mean (fun r -> r.jain_short);
        jain_long = mean (fun r -> r.jain_long);
        utilization = mean (fun r -> r.utilization);
        loss_rate = mean (fun r -> r.loss_rate);
      }

let run p =
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun capacity_bps ->
          List.map
            (fun fair_share_bps ->
              run_one p ~queue ~capacity_bps ~fair_share_bps)
            p.fair_shares_bps)
        p.capacities_bps)
    p.queues

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [
          "queue";
          "capacity_bps";
          "flows";
          "fair_share_bps";
          "jain_20s";
          "jain_long";
          "utilization";
          "loss_rate";
        ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.queue;
          Taq_util.Table.cell_float r.capacity_bps;
          string_of_int r.flows;
          Taq_util.Table.cell_float r.fair_share_bps;
          Printf.sprintf "%.3f" r.jain_short;
          Printf.sprintf "%.3f" r.jain_long;
          Printf.sprintf "%.3f" r.utilization;
          Printf.sprintf "%.4f" r.loss_rate;
        ])
    rows;
  Taq_util.Table.print table
