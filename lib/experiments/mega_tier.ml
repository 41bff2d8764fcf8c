module Mega = Taq_workload.Mega
module Model = Taq_fluid.Model
module Source = Taq_fluid.Source
module Harness = Taq_harness
module Durable = Taq_harness.Durable
module Out = Taq_util.Out

type params = {
  total_flows : int;
  shards : int;
  capacity_bps : float;
  fg_flows : int;
  rtt : float;
  duration : float;
  buffer_rtts : float;
  dt : float;
  seed : int;
}

let quick =
  {
    total_flows = 1_000_000;
    shards = 4;
    capacity_bps = 2.4e9;
    fg_flows = 4;
    rtt = 0.2;
    duration = 5.0;
    buffer_rtts = 1.0;
    dt = 0.05;
    seed = 42;
  }

let default = { quick with shards = 8; duration = 30.0 }

type shard_result = {
  shard : int;
  summary : Mega.summary;
  fluid_arrived_bytes : float;
  fluid_dropped_bytes : float;
  fg_jain : float;
  fg_loss : float;
  utilization : float;
}

type result = {
  params : params;
  shard_results : shard_result list;
  cohort : Mega.summary;
  obs_snaps : Taq_obs.Obs.snapshot list;
  restored_shards : int;
}

type checkpoint = {
  ck_cache : Harness.Cache.t;
  ck_journal : string option;
  ck_resume : bool;
}

exception Interrupted

let shard_key p ~shard =
  Printf.sprintf
    "mega/v1/flows=%d/shards=%d/shard=%d/cap=%.0f/fg=%d/rtt=%g/dur=%g/buf=%g/dt=%g/seed=%d"
    p.total_flows p.shards shard p.capacity_bps p.fg_flows p.rtt p.duration
    p.buffer_rtts p.dt p.seed

(* One shard: digest its cohort slice, then run a hybrid environment
   over the shard's slice of the bottleneck. [seed] (derived from the
   task key) drives the packet-level side; the cohort digest depends
   only on (cohort seed, id range), so sharding never perturbs it. *)
let run_shard p ~shard ~seed =
  let sh = Mega.shard ~index:shard ~n_shards:p.shards ~total:p.total_flows in
  let summary = Mega.summarize ~seed:p.seed ~base_rtt:p.rtt sh in
  let capacity_bps = p.capacity_bps /. float_of_int p.shards in
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps ~rtt:p.rtt ~rtts:p.buffer_rtts
  in
  let fluid_params =
    Model.make_params ~rtt_prop:summary.Mega.mean_rtt
      ~pkt_bytes:
        (Stdlib.max 1
           (int_of_float (Float.round summary.Mega.mean_pkt_bytes)))
      ~dt:p.dt ~n_flows:summary.Mega.n ~capacity_bps
      ~buffer_bytes:(buffer_pkts * Common.pkt_bytes)
      ()
  in
  let env =
    Common.make_env ~backend:(Common.Hybrid fluid_params) ~queue:Common.Droptail
      ~capacity_bps ~buffer_pkts ~seed ()
  in
  let source = Option.get env.Common.fluid in
  let ids = Common.spawn_long_flows env ~n:p.fg_flows ~rtt:p.rtt () in
  Common.run env ~until:p.duration;
  let m = Source.model source in
  {
    shard;
    summary;
    fluid_arrived_bytes = Model.arrived_bytes m;
    fluid_dropped_bytes = Model.dropped_bytes m;
    fg_jain = Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids;
    fg_loss = Common.measured_loss_rate env;
    utilization = Common.utilization env;
  }

(* --- shard checkpoints ---------------------------------------------------

   One cache entry per completed shard, referenced from the write-ahead
   journal by payload digest. Floats travel as hex literals ([%h]), so
   a restored shard is bit-identical to the one that was computed —
   which is what keeps a resumed run's merged cohort and counter table
   byte-identical to an uninterrupted one. *)

let wire_of_shard r =
  Printf.sprintf "megashard1 %d %h %h %h %h %h|%s" r.shard
    r.fluid_arrived_bytes r.fluid_dropped_bytes r.fg_jain r.fg_loss
    r.utilization
    (Mega.summary_to_wire r.summary)

let shard_of_wire w =
  match String.index_opt w '|' with
  | None -> None
  | Some bar -> (
      let head = String.sub w 0 bar in
      let tail = String.sub w (bar + 1) (String.length w - bar - 1) in
      match
        Scanf.sscanf head "megashard1 %d %h %h %h %h %h%!"
          (fun shard fluid_arrived_bytes fluid_dropped_bytes fg_jain fg_loss
               utilization ->
            (shard, fluid_arrived_bytes, fluid_dropped_bytes, fg_jain, fg_loss,
             utilization))
      with
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
      | shard, fluid_arrived_bytes, fluid_dropped_bytes, fg_jain, fg_loss,
        utilization ->
          Option.map
            (fun summary ->
              {
                shard;
                summary;
                fluid_arrived_bytes;
                fluid_dropped_bytes;
                fg_jain;
                fg_loss;
                utilization;
              })
            (Mega.summary_of_wire tail))

(* A payload restores only under its own shard's key. *)
let codec p =
  {
    Durable.encode = wire_of_shard;
    decode =
      (fun ~key w ->
        match shard_of_wire w with
        | Some r when shard_key p ~shard:r.shard = key -> Some r
        | Some _ | None -> None);
  }

let run ?(jobs = 1) ?checkpoint p =
  if p.shards <= 0 then invalid_arg "Mega_tier.run: shards";
  if p.total_flows < p.shards then invalid_arg "Mega_tier.run: total_flows";
  let tasks =
    List.init p.shards (fun shard ->
        Harness.Task.make ~key:(shard_key p ~shard) (fun ~seed ->
            run_shard p ~shard ~seed))
  in
  let shard_results, obs_snaps, restored_shards =
    match checkpoint with
    | None when jobs <= 1 ->
        (* In-process: counters accumulate in the caller's collector
           (the bench harness relies on this — see the .mli). *)
        (List.map Harness.Task.run tasks, [], 0)
    | _ ->
        (* Checkpointed runs always go through the runner (even at
           jobs 1): per-shard snapshots must exist so a resume can
           restore them. *)
        let results =
          match checkpoint with
          | None -> Durable.run ~jobs (codec p) tasks
          | Some ck ->
              Durable.run ~jobs ~cache:ck.ck_cache ?journal:ck.ck_journal
                ~resume:ck.ck_resume (codec p) tasks
        in
        if Harness.Pool.cancel_requested () then raise Interrupted;
        let value (r : _ Durable.result) =
          match r.Durable.outcome with
          | Durable.(Restored v | Hit v | Computed v) -> v
          | Durable.(Failed _ | Cancelled) ->
              failwith
                (Printf.sprintf "mega shard %s failed: %s" r.Durable.key
                   r.Durable.status)
        in
        let restored (r : _ Durable.result) =
          match r.Durable.outcome with Durable.Restored _ -> true | _ -> false
        in
        ( List.map value results,
          List.map (fun (r : _ Durable.result) -> r.Durable.obs) results,
          List.length (List.filter restored results) )
  in
  let cohort =
    List.fold_left
      (fun acc r -> Mega.merge acc r.summary)
      Mega.empty shard_results
  in
  if cohort.Mega.n <> p.total_flows then
    failwith
      (Printf.sprintf "mega cohort covered %d flows, expected %d" cohort.Mega.n
         p.total_flows);
  { params = p; shard_results; cohort; obs_snaps; restored_shards }

let print r =
  let p = r.params in
  Out.printf
    "mega tier: %d modeled flows over %d shard(s), %.0f bps aggregate, %.0f s\n\n"
    p.total_flows p.shards p.capacity_bps p.duration;
  let table =
    Taq_util.Table.create
      ~columns:
        [
          "shard"; "flows"; "mean_rtt"; "arrived_MB"; "fluid_drop"; "fg_jain";
          "util";
        ]
  in
  List.iter
    (fun s ->
      let drop =
        if s.fluid_arrived_bytes <= 0.0 then 0.0
        else s.fluid_dropped_bytes /. s.fluid_arrived_bytes
      in
      Taq_util.Table.add_row table
        [
          string_of_int s.shard;
          string_of_int s.summary.Mega.n;
          Printf.sprintf "%.3f" s.summary.Mega.mean_rtt;
          Printf.sprintf "%.1f" (s.fluid_arrived_bytes /. 1e6);
          Printf.sprintf "%.4f" drop;
          Printf.sprintf "%.3f" s.fg_jain;
          Printf.sprintf "%.3f" s.utilization;
        ])
    r.shard_results;
  Taq_util.Table.print table;
  let arrived =
    List.fold_left (fun a s -> a +. s.fluid_arrived_bytes) 0.0 r.shard_results
  in
  let dropped =
    List.fold_left (fun a s -> a +. s.fluid_dropped_bytes) 0.0 r.shard_results
  in
  Out.printf
    "\ncohort: %s | fluid arrived %.1f MB, dropped %.4f of bytes\n"
    (Mega.summary_to_string r.cohort)
    (arrived /. 1e6)
    (if arrived <= 0.0 then 0.0 else dropped /. arrived);
  if r.restored_shards > 0 then
    Out.printf "checkpoints: %d shard(s) restored\n" r.restored_shards
