type params = {
  queues : string list;
  flows : int;
  capacity_bps : float;
  rtt : float;
  window : float;
  duration : float;
  warmup : float;
  seed : int;
}

let default =
  {
    queues = [ "droptail"; "taq" ];
    flows = 180;
    capacity_bps = 600e3;
    rtt = 0.2;
    window = 5.0;
    duration = 1100.0;
    warmup = 200.0;
    seed = 17;
  }

let quick = { default with duration = 400.0; warmup = 100.0 }

type result = {
  queue : string;
  series : Taq_metrics.Flow_evolution.series;
  stalled_fraction : float;
  maintained_fraction : float;
  warmup : float;
}

let run_one p queue =
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps:p.capacity_bps ~rtt:p.rtt ~rtts:1.0
  in
  let q = Common.queue_of_disc ~capacity_bps:p.capacity_bps ~buffer_pkts queue in
  let env =
    Common.make_env ~queue:q ~capacity_bps:p.capacity_bps ~buffer_pkts
      ~evolution_window:p.window ~seed:p.seed ()
  in
  ignore (Common.spawn_long_flows env ~n:p.flows ~rtt:p.rtt ~rtt_jitter:0.1 ());
  Common.run env ~until:p.duration;
  let series =
    Taq_metrics.Flow_evolution.series env.Common.evolution ~until:p.duration
  in
  (* Summary fractions over the post-warmup windows only. *)
  let first_w = int_of_float (p.warmup /. p.window) in
  let slice arr = Array.sub arr first_w (Array.length arr - first_w) in
  let counted =
    {
      series with
      Taq_metrics.Flow_evolution.times = slice series.Taq_metrics.Flow_evolution.times;
      maintained = slice series.Taq_metrics.Flow_evolution.maintained;
      dropped = slice series.Taq_metrics.Flow_evolution.dropped;
      arriving = slice series.Taq_metrics.Flow_evolution.arriving;
      stalled = slice series.Taq_metrics.Flow_evolution.stalled;
      live = slice series.Taq_metrics.Flow_evolution.live;
    }
  in
  {
    queue;
    series;
    stalled_fraction = Taq_metrics.Flow_evolution.stalled_fraction counted;
    maintained_fraction = Taq_metrics.Flow_evolution.maintained_fraction counted;
    warmup = p.warmup;
  }

let run p = List.map (run_one p) p.queues

let print results =
  let table =
    Taq_util.Table.create
      ~columns:[ "queue"; "time_s"; "arriving"; "dropped"; "maintained"; "stalled" ]
  in
  List.iter
    (fun r ->
      let s = r.series in
      let n = Array.length s.Taq_metrics.Flow_evolution.times in
      let first_w =
        int_of_float (r.warmup /. s.Taq_metrics.Flow_evolution.window)
      in
      (* Report every 4th window to keep the table readable. *)
      let step = 4 in
      let w = ref first_w in
      while !w < n do
        Taq_util.Table.add_row table
          [
            r.queue;
            Printf.sprintf "%.0f" s.Taq_metrics.Flow_evolution.times.(!w);
            string_of_int s.Taq_metrics.Flow_evolution.arriving.(!w);
            string_of_int s.Taq_metrics.Flow_evolution.dropped.(!w);
            string_of_int s.Taq_metrics.Flow_evolution.maintained.(!w);
            string_of_int s.Taq_metrics.Flow_evolution.stalled.(!w);
          ];
        w := !w + step
      done)
    results;
  Taq_util.Table.print table;
  Taq_util.Out.newline ();
  let summary =
    Taq_util.Table.create
      ~columns:[ "queue"; "mean_stalled_frac"; "mean_maintained_frac" ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row summary
        [
          r.queue;
          Printf.sprintf "%.3f" r.stalled_fraction;
          Printf.sprintf "%.3f" r.maintained_fraction;
        ])
    results;
  Taq_util.Table.print summary
