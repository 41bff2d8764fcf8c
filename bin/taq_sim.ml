(* taq_sim: the command-line front end.

   Subcommands:
     experiment  run a paper-figure reproduction by name
     sim         ad-hoc dumbbell contention run with any queue
     sweep       a (discipline x capacity x fair-share x rep) grid, or
                 the disc x tcp x workload x fault matrix, on a Domain
                 worker pool through the durable result cache
     faults      run the canonical fault-scenario registry and assert
                 the recovery properties it promises
     model       evaluate the idealized Markov models
     trace       generate a synthetic proxy access trace (CSV)
     replay      replay a proxy access trace through an access link

   This file parses arguments and prints: points and task keys live in
   Taq_experiments.Sweep, the journal/cache protocol in Durable. *)

open Cmdliner
open Taq_experiments
module Harness = Taq_harness
module Check = Taq_check.Check
module Obs = Taq_obs.Obs
module Fault_plan = Taq_fault.Plan
module Scenarios = Taq_fault.Scenarios
module Durable = Taq_harness.Durable

(* Setup steps return [(_, string) result]; [let*] turns the first
   error into the command's error exit. *)
let ( let* ) r f = match r with Ok v -> f v | Error msg -> `Error (false, msg)

let violation msg = `Error (false, Printf.sprintf "invariant violation: %s" msg)

(* --- invariant checking ------------------------------------------------ *)

(* [--check] / [--check=GROUPS] installs the ambient invariant policy
   before any simulation (or worker domain) starts; every Sim, Link,
   Taq_disc and Tcp_sender created afterwards is instrumented. Raise
   mode: the first violation aborts the run with a nonzero exit. *)
let check_arg =
  Arg.(
    value
    & opt ~vopt:(Some "all") (some string) None
    & info [ "check" ] ~docv:"GROUPS"
        ~doc:
          "Enable runtime invariant checking. $(docv) is a comma-separated \
           subset of engine, net, queueing, tcp, core, guard, resil \
           (default: all). The first violation aborts the run.")

let setup_check spec =
  match spec with
  | None -> Ok false
  | Some s -> (
      match Check.groups_of_string s with
      | Ok groups ->
          Check.set_policy ~mode:Check.Raise ~groups ();
          Ok true
      | Error msg -> Error msg)

(* --- observability ----------------------------------------------------- *)

(* [--obs] / [--obs=SPEC] installs the ambient observability policy
   before any simulation (or worker domain) starts, mirroring --check:
   every environment built afterwards carries deterministic perf
   counters (and, with trace, a Chrome trace_event ring). *)
let obs_arg =
  Arg.(
    value
    & opt ~vopt:(Some "counters") (some string) None
    & info [ "obs" ] ~docv:"SPEC"
        ~doc:
          "Enable perf observability. $(docv) is a comma-separated list of \
           $(b,counters) (deterministic event counters — the default), \
           $(b,trace) or $(b,trace:PATH) (Chrome trace_event JSON of the \
           simulated timeline, default path taq.trace.json; implies \
           counters) and $(b,off). Counters are deterministic: equal seeds \
           print equal values for any --jobs count.")

let setup_obs spec =
  match spec with
  | None -> Ok false
  | Some s -> (
      match Obs.policy_of_spec s with
      | Ok p ->
          Obs.set_policy p;
          Ok (Obs.policy_enabled ())
      | Error msg -> Error msg)

(* Print the counter report and, when tracing was requested, write the
   Chrome trace file from a merged snapshot. *)
let finish_obs snap =
  print_string (Obs.report snap);
  match Obs.trace_path () with
  | None -> ()
  | Some path ->
      Taq_obs.Trace.write_file ~path snap.Obs.events;
      Printf.printf "  chrome trace: %d event(s) written to %s\n"
        (List.length snap.Obs.events)
        path

(* --- fault injection --------------------------------------------------- *)

(* [--faults=PLAN] is passed to every environment the command builds,
   which attaches an injector seeded from its own root PRNG. PLAN is
   either a plan expression ("flap@5+2;corrupt@8-12:p=0.01") or a
   registered scenario name ("flap-slow-start"). *)
let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject deterministic faults. $(docv) is a fault-plan expression \
           (e.g. 'flap@5+2;corrupt@8-12:p=0.01') or a scenario name from \
           $(b,taq_sim faults --list). The plan is seeded from each run's \
           PRNG, so equal seeds give byte-identical fault timelines.")

(* With [run_until], a clause starting at or past the horizon — which
   would silently inject nothing — is rejected up front with the
   parser's actionable message. *)
let setup_faults ?run_until spec =
  match spec with
  | None -> Ok None
  | Some s ->
      Result.bind (Scenarios.plan_of_string s) (fun plan ->
          Result.map
            (fun () -> Some plan)
            (match run_until with
            | Some run_until -> Fault_plan.check_within ~run_until plan
            | None -> Ok ()))

(* --- resilience SLOs ---------------------------------------------------- *)

(* [--resil] / [--resil=SPEC] is passed to every environment the
   command builds, which attaches a read-only steady-state/recovery
   monitor against its fault plan. The monitor never perturbs the
   trajectory, so metrics with and without --resil are
   byte-identical. *)
let resil_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "resil" ] ~docv:"SPEC"
        ~doc:
          "Monitor resilience SLOs: rolling windows of Jain fairness, drop \
           rate and bottleneck occupancy, a pre-fault baseline, peak \
           deviation inside fault windows, and per-metric time-to-recover \
           after the fault plan clears. $(docv) is a comma-separated list of \
           key=value overrides of the canonical parameters (period, sustain, \
           eps-jain, eps-drop, eps-occ-frac, eps-occ-floor); bare $(b,--resil) \
           uses the defaults. Deterministic: equal seeds report equal \
           recovery times at any --jobs count.")

let setup_resil spec =
  match spec with
  | None -> Ok None
  | Some s -> Result.map Option.some (Taq_resil.Policy.params_of_spec s)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let name_arg =
    let doc =
      Printf.sprintf "Experiment to run: one of %s."
        (String.concat ", " Registry.names)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-fidelity parameters.")
  in
  let run name full check obs =
    let* enabled = setup_check check in
    let* obs_enabled = setup_obs obs in
    match Registry.find name with
    | Some t -> (
        try
          t.Registry.run ~full;
          if enabled then
            Printf.eprintf "invariant checks: clean (experiment %s)\n" name;
          if obs_enabled then finish_obs (Obs.root_snapshot ());
          `Ok ()
        with Check.Violation msg -> violation msg)
    | None ->
        `Error
          (false, Printf.sprintf "unknown experiment %S (known: %s)" name
                    (String.concat ", " Registry.names))
  in
  let doc = "Reproduce one of the paper's figures" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      ret (const run $ name_arg $ full_arg $ check_arg $ obs_arg))

(* --- sim ---------------------------------------------------------------- *)

(* The dumbbell geometry shared by sim and sweep. *)
let rtt_arg =
  Arg.(value & opt float 0.2 & info [ "rtt" ] ~docv:"S" ~doc:"Propagation RTT.")

let duration_arg =
  Arg.(
    value & opt float 200.0
    & info [ "d"; "duration" ] ~docv:"S" ~doc:"Run length.")

let buffer_rtts_arg =
  Arg.(
    value & opt float 1.0
    & info [ "buffer-rtts" ] ~docv:"RTTS" ~doc:"Buffer size in RTTs of delay.")

let queue_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Common.disc_of_string s) in
  Arg.conv (parse, Format.pp_print_string)

let disc_list = String.concat ", " Common.disc_names

(* The one queue of sim and replay. *)
let queue_arg =
  Arg.(
    value
    & opt queue_conv "droptail"
    & info [ "q"; "queue" ] ~docv:"QUEUE"
        ~doc:("Queue discipline: " ^ disc_list ^ "."))

let sim_cmd =
  let capacity =
    Arg.(
      value & opt float 600e3
      & info [ "c"; "capacity" ] ~docv:"BPS" ~doc:"Bottleneck capacity, bits/s.")
  in
  let flows =
    Arg.(value & opt int 60 & info [ "n"; "flows" ] ~docv:"N" ~doc:"Long-lived flows.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let guard =
    Arg.(
      value
      & opt ~vopt:(Some 256) (some int) None
      & info [ "guard" ] ~docv:"CAP"
          ~doc:
            "Enable the TAQ overload guard with a flow-tracker cap of $(docv) \
             flows (default 256 when the flag is given bare). Only meaningful \
             with --queue taq or taq+ac: the tracker evicts idle-first/LRU at \
             the cap and the guard degrades to droptail under sustained \
             eviction churn or admission pressure, recovering with \
             hysteresis.")
  in
  let pcap =
    Arg.(
      value & opt (some string) None
      & info [ "pcap" ] ~docv:"PATH"
          ~doc:
            "Record every enqueue/drop/delivery at the bottleneck and write \
             the packet log as CSV to $(docv).")
  in
  let run queue capacity flows rtt duration buffer_rtts seed guard pcap check
      obs faults resil =
   let* check_enabled = setup_check check in
   let* obs_enabled = setup_obs obs in
   let* faults = setup_faults ~run_until:duration faults in
   let* resil = setup_resil resil in
   (try
    let buffer_pkts =
      Common.buffer_for_rtts ~capacity_bps:capacity ~rtt ~rtts:buffer_rtts
    in
    let q =
      Common.queue_of_disc ?guard_cap:guard ~capacity_bps:capacity ~buffer_pkts
        queue
    in
    let env =
      Common.make_env ?faults ?resil ~queue:q ~capacity_bps:capacity
        ~buffer_pkts ~seed ()
    in
    let log =
      Option.map
        (fun _ ->
          Taq_metrics.Packet_log.attach
            ~now:(fun () -> Taq_engine.Sim.now env.Common.sim)
            (Taq_net.Dumbbell.link env.Common.net))
        pcap
    in
    let ids = Common.spawn_long_flows env ~n:flows ~rtt ~rtt_jitter:0.1 () in
    Common.run env ~until:duration;
    (match (pcap, log) with
    | Some path, Some log ->
        Taq_metrics.Packet_log.save_csv log ~path;
        Printf.printf "packet log: %d events written to %s\n"
          (Taq_metrics.Packet_log.count log)
          path
    | _ -> ());
    let series =
      Taq_metrics.Flow_evolution.series env.Common.evolution ~until:duration
    in
    (* [backend=packet] keeps the report line in its established
       format. *)
    Printf.printf
      "queue=%s backend=packet capacity=%.0fbps flows=%d buffer=%dpkts \
       duration=%.0fs\n"
      (Common.queue_name q) capacity flows buffer_pkts duration;
    Printf.printf "  short-term Jain (20s slices): %.3f\n"
      (Taq_metrics.Slicer.mean_jain env.Common.slicer ~flows:ids ~first:1 ());
    Printf.printf "  long-term Jain:               %.3f\n"
      (Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids);
    Printf.printf "  utilization:                  %.3f\n" (Common.utilization env);
    Printf.printf "  packet loss rate:             %.4f\n"
      (Common.measured_loss_rate env);
    Printf.printf "  stalled-flow fraction:        %.3f\n"
      (Taq_metrics.Flow_evolution.stalled_fraction series);
    (match env.Common.taq with
    | None -> ()
    | Some t ->
        let st = Taq_core.Taq_disc.stats t in
        Printf.printf
          "  taq: enqueued=%d dropped=%d admission_rejected=%d forced_recovery=%d\n"
          st.Taq_core.Taq_disc.enqueued st.Taq_core.Taq_disc.dropped
          st.Taq_core.Taq_disc.admission_rejected
          st.Taq_core.Taq_disc.forced_recovery_drops;
        match Taq_core.Taq_disc.guard t with
        | None -> ()
        | Some g ->
            let tr = Taq_core.Taq_disc.tracker t in
            Printf.printf "  %s peak_tracked=%d cap_evictions=%d\n"
              (Taq_core.Overload.report g)
              (Taq_core.Flow_tracker.peak_tracked tr)
              (Taq_core.Flow_tracker.cap_evictions tr));
    (match env.Common.faults with
    | None -> ()
    | Some inj ->
        Printf.printf "  %s\n" (Taq_fault.Injector.report inj);
        if Taq_fault.Injector.injected_total inj = 0 then
          Printf.printf
            "  warning: the fault plan injected nothing (every fault.* \
             counter is zero) — check the clause windows against the run \
             duration and the traffic they should hit\n");
    (match Common.resil_rows env with
    | None -> ()
    | Some rows ->
        List.iter
          (fun row ->
            Printf.printf "  %s\n" (Taq_resil.Monitor.row_line row))
          rows);
    if check_enabled then print_string (Check.report env.Common.check);
    if obs_enabled then finish_obs (Obs.snapshot env.Common.obs);
    `Ok ()
   with Check.Violation msg -> violation msg)
  in
  let doc = "Ad-hoc dumbbell contention run" in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      ret
        (const run $ queue_arg $ capacity $ flows $ rtt_arg $ duration_arg
       $ buffer_rtts_arg $ seed $ guard $ pcap $ check_arg $ obs_arg
       $ faults_arg $ resil_arg))

(* --- sweep ---------------------------------------------------------------- *)

let sweep_cmd =
  let queues =
    Arg.(
      value
      & opt (list queue_conv) []
      & info [ "queues" ] ~docv:"QUEUES"
          ~doc:
            ("Comma-separated disciplines (" ^ disc_list
           ^ "). Default: droptail,taq — or the full zoo with $(b,--matrix)."
            ))
  in
  let matrix =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:
            "Run the disc x tcp x workload x fault cell matrix instead of \
             the classic capacity/fair-share grid: every discipline crossed \
             with every --tcps stack, --workloads scenario and --fault-axis \
             fault at the quick golden scale, one cell report line (plus \
             per-metric resilience lines) each, and the merged per-cell \
             Jain/drop-rate/recovery table. The guard (--guard) stays an \
             axis of the cell key; the fault axis owns fault injection \
             (--faults is rejected) and every cell runs the resilience \
             monitor with canonical parameters (--resil is rejected).")
  in
  let fault_axis =
    Arg.(
      value
      & opt (list string) Matrix.default_fault_axis
      & info [ "fault-axis" ] ~docv:"FAULTS"
          ~doc:
            "Matrix mode: comma-separated fault-axis scenarios crossed with \
             every cell (none, flap, flood, brownout, jitter). Each fault is \
             folded into the cell's task key, so faulted cells draw their \
             own seeds and never alias fault-free cache entries.")
  in
  let tcps =
    Arg.(
      value
      & opt (list string) [ "newreno"; "cubic" ]
      & info [ "tcps" ] ~docv:"TCPS"
          ~doc:
            "Matrix mode: comma-separated TCP profiles (newreno, sack, \
             cubic).")
  in
  let workloads =
    Arg.(
      value
      & opt (list string) [ "longmix"; "mice" ]
      & info [ "workloads" ] ~docv:"WLS"
          ~doc:"Matrix mode: comma-separated workloads (longmix, mice).")
  in
  let capacities =
    Arg.(
      value
      & opt (list float) [ 600e3 ]
      & info [ "capacities" ] ~docv:"BPS,.." ~doc:"Bottleneck capacities, bits/s.")
  in
  let fair_shares =
    Arg.(
      value
      & opt (list float) [ 4e3; 10e3; 20e3; 40e3 ]
      & info [ "fair-shares" ] ~docv:"BPS,.." ~doc:"Per-flow fair shares, bits/s.")
  in
  let reps =
    Arg.(
      value & opt int 1
      & info [ "reps" ] ~docv:"N"
          ~doc:"Replicas per point (each derives its own seed from the task key).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains. 1 runs sequentially in-process; outputs are \
                byte-identical either way.")
  in
  let results_dir =
    Arg.(
      value
      & opt string Harness.Cache.default_dir
      & info [ "results-dir" ] ~docv:"DIR" ~doc:"On-disk result cache directory.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute every point; do not read or write the cache.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a killed or cancelled sweep: replay the write-ahead \
             journal under --results-dir, restore journaled-complete points \
             from the cache (payload digests verified), and re-execute only \
             the remainder. The merged output is byte-identical to an \
             uninterrupted run.")
  in
  let timeout_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-s" ] ~docv:"S"
          ~doc:
            "Per-task deadline in seconds. A point that exceeds it is \
             recorded as failed (the worker moves on); with --retries the \
             attempt is retried first.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry failed or timed-out points up to $(docv) times (with \
             exponential backoff) before quarantining them as failed.")
  in
  let guard =
    Arg.(
      value
      & opt ~vopt:(Some 256) (some int) None
      & info [ "guard" ] ~docv:"CAP"
          ~doc:
            "Enable the TAQ overload guard (tracker cap $(docv), default 256 \
             when given bare) on every taq/taq+ac point. Part of the cache \
             key, so guarded and unguarded sweeps never share entries.")
  in
  let run queues matrix tcps workloads fault_axis capacities fair_shares reps
      rtt duration buffer_rtts guard jobs results_dir no_cache resume timeout_s
      retries check obs faults resil =
    if reps < 1 then `Error (false, "--reps must be >= 1")
    else if resume && no_cache then
      `Error
        (false,
         "--resume needs the cache (restored points live there); drop \
          --no-cache")
    else if matrix && faults <> None then
      `Error
        (false,
         "--matrix owns its fault injection: pick scenarios with \
          --fault-axis (none, flap, flood, brownout, jitter) instead of \
          --faults")
    else if matrix && resil <> None then
      `Error
        (false,
         "--matrix cells always run the resilience monitor with canonical \
          parameters (its recovery columns must be comparable across \
          reports); drop --resil")
    else if (not matrix) && fault_axis <> Matrix.default_fault_axis then
      `Error (false, "--fault-axis is a matrix axis; it requires --matrix")
    else begin
      let* check_enabled = setup_check check in
      let* obs_enabled = setup_obs obs in
      let* fault_plan = setup_faults ~run_until:duration faults in
      let* resil_params = setup_resil resil in
      let* points =
        if matrix then
          Sweep.matrix ~discs:queues ~tcps ~workloads ~faults:fault_axis ~guard
        else
          let setting =
            {
              Sweep.rtt;
              duration;
              buffer_rtts;
              faults = fault_plan;
              guard;
              resil = resil_params;
            }
          in
          Ok (Sweep.grid setting ~queues ~capacities ~fair_shares ~reps)
      in
      Harness.Pool.install_signal_cancellation ~label:"sweep" ();
      let progress ~completed ~total (r : string Harness.Pool.result) =
        Printf.eprintf "[%d/%d] %s (%.1f s, %s)\n%!" completed total
          r.Harness.Pool.key r.Harness.Pool.elapsed_s (Harness.Pool.status r)
      in
      (* Durability: a write-ahead journal under the results dir records
         every point's start and (digest-stamped) finish; --resume
         restores journaled-complete points, so the merged report and
         counter table come out byte-identical to an uninterrupted
         run. *)
      let* results =
        try
          Ok
            (Durable.run ~jobs ?timeout_s ~retries
               ?cache:
                 (if no_cache then None
                  else Some (Harness.Cache.create ~dir:results_dir ()))
               ~journal:(Filename.concat results_dir "sweep.journal")
               ~resume ~on_done:progress
               Durable.identity
               (List.map Sweep.task points))
        with Invalid_argument msg -> Error msg
      in
      let n_points = List.length points in
      let summary =
        Taq_util.Table.create ~columns:[ "task"; "seconds"; "source" ]
      in
      let row ?(timed = true) (r : _ Durable.result) source =
        Taq_util.Table.add_row summary
          [
            r.Durable.key;
            (if timed then Printf.sprintf "%.2f" r.Durable.elapsed_s else "-");
            source;
          ]
      in
      (* Outputs in point order (failures reported in place), for the
         matrix report below. *)
      let outputs =
        List.filter_map
          (fun (r : string Durable.result) ->
            let emit ?timed source output =
              print_string output;
              row ?timed r source;
              Some output
            in
            match r.Durable.outcome with
            | Durable.Restored output -> emit ~timed:false "journal" output
            | Durable.Hit output -> emit ~timed:false "cache hit" output
            | Durable.Computed output -> emit "computed" output
            | Durable.Failed msg ->
                Printf.printf "%s FAILED: %s\n" r.Durable.key msg;
                row r r.Durable.status;
                None
            | Durable.Cancelled ->
                row ~timed:false r "cancelled";
                None)
          results
      in
      let count p =
        List.length (List.filter (fun r -> p r.Durable.outcome) results)
      in
      let hits = count (function Durable.Hit _ -> true | _ -> false) in
      let misses = count (function Durable.Computed _ -> true | _ -> false) in
      let failures = count (function Durable.Failed _ -> true | _ -> false) in
      let cancelled = count (( = ) Durable.Cancelled) in
      if matrix then begin
        Printf.printf "\n-- matrix report (%d cell(s)) --\n\n" n_points;
        Taq_util.Table.print ~oc:stdout (Sweep.matrix_report outputs)
      end;
      Printf.printf "\n-- sweep summary (%d points, jobs=%d) --\n\n" n_points
        jobs;
      Taq_util.Table.print ~oc:stdout summary;
      Printf.printf "\ncache: %d hits, %d misses%s%s (dir: %s)\n" hits misses
        (if resume then
           Printf.sprintf ", %d restored"
             (count (function Durable.Restored _ -> true | _ -> false))
         else "")
        (if no_cache then " [cache disabled]" else "")
        results_dir;
      (* Per-point snapshots merged in input order, plus the root
         collector (instances created outside any task, e.g. the
         cache): --jobs 4 prints exactly what --jobs 1 prints, and a
         resumed run what an uninterrupted one would, modulo the root
         collector's journal./cache./pool. infra counters. *)
      if obs_enabled then
        finish_obs
          (Obs.merge_all
             (Obs.root_snapshot ()
             :: List.map (fun r -> r.Durable.obs) results));
      if cancelled > 0 then begin
        Printf.printf "\nsweep cancelled: %d point(s) not executed%s\n"
          cancelled
          (if no_cache then ""
           else " — rerun with --resume to finish from the journal");
        Stdlib.exit Harness.Pool.cancelled_exit_code
      end;
      if failures > 0 then
        `Error (false, Printf.sprintf "%d sweep point(s) failed" failures)
      else begin
        if check_enabled then
          Printf.printf "invariant checks: clean (%d computed point(s))\n"
            misses;
        `Ok ()
      end
    end
  in
  let doc = "Parameter-grid sweep on a Domain worker pool (with result cache)" in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const run $ queues $ matrix $ tcps $ workloads $ fault_axis
       $ capacities $ fair_shares $ reps $ rtt_arg $ duration_arg
       $ buffer_rtts_arg $ guard $ jobs $ results_dir $ no_cache $ resume
       $ timeout_s $ retries $ check_arg $ obs_arg $ faults_arg $ resil_arg))

(* --- faults --------------------------------------------------------------- *)

(* Run the canonical fault-scenario registry (or one scenario) as a
   (scenario x queue) drill grid on the worker pool and assert the
   recovery properties the registry promises. Exit status is nonzero
   if any drill reports a problem. *)
let faults_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered scenarios and exit.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:"Run only this scenario (default: the whole registry).")
  in
  let queues =
    Arg.(
      value
      & opt (list queue_conv) [ "droptail"; "taq" ]
      & info [ "queues" ] ~docv:"QUEUES"
          ~doc:"Comma-separated disciplines to drill each scenario against.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains. Drills are seeded from their task keys, so \
                outcomes are byte-identical for any jobs count.")
  in
  let run list_flag scenario queues jobs check obs resil =
    if list_flag then begin
      List.iter
        (fun s ->
          Printf.printf "%-28s %s\n    %s\n" s.Scenarios.name
            (Fault_plan.to_string s.Scenarios.plan)
            s.Scenarios.description)
        Scenarios.all;
      `Ok ()
    end
    else
      let* check_enabled = setup_check check in
      let* obs_enabled = setup_obs obs in
      let* resil = setup_resil resil in
      let* scenarios =
        match scenario with
        | None -> Ok Scenarios.all
        | Some name -> (
            match Scenarios.find name with
            | Some s -> Ok [ s ]
            | None ->
                Error
                  (Printf.sprintf "unknown scenario %S (known: %s)" name
                     (String.concat ", " Scenarios.names)))
      in
      let* drills = Sweep.drills ~resil ~scenarios ~queues in
      try
        Harness.Pool.install_signal_cancellation ~label:"fault drills" ();
        let results =
          Harness.Pool.run ~jobs
            ~on_done:(fun ~completed ~total r ->
              Printf.eprintf "[%d/%d] %s (%.1f s)\n%!" completed total
                r.Harness.Pool.key r.Harness.Pool.elapsed_s)
            (List.map Sweep.task drills)
        in
        (* A SIGINT/SIGTERM mid-registry prints the drills that did
           finish and exits with the cancellation code. *)
        let finished, cancelled =
          List.partition (fun r -> not (Harness.Pool.cancelled r)) results
        in
        let outcomes = List.map Harness.Pool.value_exn finished in
        Fault_drill.print outcomes;
        if obs_enabled then
          finish_obs
            (Obs.merge_all
               (Obs.root_snapshot ()
               :: List.map (fun r -> r.Harness.Pool.obs) finished));
        if cancelled <> [] then begin
          Printf.printf "\nfault drills cancelled: %d drill(s) not executed\n"
            (List.length cancelled);
          Stdlib.exit Harness.Pool.cancelled_exit_code
        end;
        match List.filter (fun o -> not o.Fault_drill.ok) outcomes with
        | [] ->
            if check_enabled then
              Printf.printf "invariant checks: clean (%d drill(s))\n"
                (List.length outcomes);
            `Ok ()
        | bad ->
            `Error
              ( false,
                Printf.sprintf "%d fault drill(s) failed: %s" (List.length bad)
                  (String.concat "; "
                     (List.map
                        (fun o ->
                          Printf.sprintf "%s/%s (%s)" o.Fault_drill.scenario
                            o.Fault_drill.queue
                            (String.concat "; " o.Fault_drill.problems))
                        bad)) )
      with
      | Check.Violation msg -> violation msg
      | Failure msg | Invalid_argument msg -> `Error (false, msg)
  in
  let doc = "Run the canonical fault-scenario registry and assert recovery" in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      ret
        (const run $ list_flag $ scenario $ queues $ jobs $ check_arg
       $ obs_arg $ resil_arg))

(* --- model --------------------------------------------------------------- *)

let model_cmd =
  let p_arg =
    Arg.(
      value & opt (some float) None
      & info [ "p" ] ~docv:"P" ~doc:"Loss probability; prints the stationary distribution.")
  in
  let wmax = Arg.(value & opt int 6 & info [ "wmax" ] ~docv:"W" ~doc:"Model Wmax.") in
  let full_model =
    Arg.(value & flag & info [ "full-model" ] ~doc:"Use the expanded backoff-stage model.")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ] ~doc:"Sweep p over 0.01..0.45 and print the sent-class series.")
  in
  let run p wmax full_model sweep =
    let print_dist p =
      let labels, dist, sent =
        if full_model then begin
          let m = Taq_model.Full_model.create ~wmax ~p () in
          ( Taq_model.Full_model.state_labels m,
            Taq_model.Full_model.stationary m,
            Taq_model.Full_model.sent_distribution m )
        end
        else begin
          let m = Taq_model.Partial_model.create ~wmax ~p () in
          ( Taq_model.Partial_model.state_labels m,
            Taq_model.Partial_model.stationary m,
            Taq_model.Partial_model.sent_distribution m )
        end
      in
      Printf.printf "p = %.4f (%s model, wmax=%d)\n" p
        (if full_model then "full" else "partial")
        wmax;
      Array.iteri
        (fun i l -> Printf.printf "  %-4s %.4f\n" l dist.(i))
        labels;
      Printf.printf "sent-classes:";
      Array.iteri (fun k v -> Printf.printf " %d:%.3f" k v) sent;
      print_newline ()
    in
    if sweep then begin
      let table =
        Taq_util.Table.create
          ~columns:
            [ "p"; "timeout_mass"; "silence_mass"; "goodput_pkts_per_epoch" ]
      in
      List.iter
        (fun pt ->
          Taq_util.Table.addf table
            [
              pt.Taq_model.Analysis.p;
              pt.Taq_model.Analysis.timeout_mass;
              pt.Taq_model.Analysis.silence_mass;
              pt.Taq_model.Analysis.goodput_pkts_per_epoch;
            ])
        (Taq_model.Analysis.sweep ~wmax ~full:full_model ~p_lo:0.01 ~p_hi:0.45
           ~steps:23 ());
      Taq_util.Table.print table;
      Printf.printf "\ntipping point (majority in timeout): p = %.3f\n"
        (Taq_model.Analysis.tipping_point ~wmax ());
      Printf.printf
        "expected epochs to first timeout from Wmax at p=0.1: %.1f\n"
        (Taq_model.Analysis.epochs_to_first_timeout ~wmax ~p:0.1
           ~from_window:wmax ());
      Printf.printf "steepest timeout-mass increase:      p = %.3f\n"
        (Taq_model.Analysis.steepest_increase ~wmax ())
    end;
    Option.iter print_dist p;
    if (not sweep) && p = None then print_dist 0.1
  in
  let doc = "Evaluate the idealized Markov models" in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ p_arg $ wmax $ full_model $ sweep)

(* --- replay ------------------------------------------------------------------ *)

let replay_cmd =
  let trace_path =
    Arg.(
      required & opt (some string) None
      & info [ "t"; "trace" ] ~docv:"PATH" ~doc:"Trace CSV (from the trace subcommand).")
  in
  let capacity =
    Arg.(
      value & opt float 2000e3
      & info [ "c"; "capacity" ] ~docv:"BPS" ~doc:"Access-link capacity, bits/s.")
  in
  let duration =
    Arg.(
      value & opt float 1800.0
      & info [ "d"; "duration" ] ~docv:"S" ~doc:"Replay window (trace clipped).")
  in
  let run trace_path queue capacity duration =
    let trace = Taq_workload.Trace.load_csv ~path:trace_path in
    let p =
      {
        Fig1_scatter.default with
        Fig1_scatter.capacity_bps = capacity;
        duration;
      }
    in
    Printf.printf "replaying %d records (%d clients) at %.0f bps under %s\n\n"
      (Array.length trace)
      (Array.length (Taq_workload.Trace.client_ids trace))
      capacity queue;
    Fig1_scatter.print (Fig1_scatter.run_trace p ~queue ~trace)
  in
  let doc = "Replay a proxy access trace through a simulated access link" in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ trace_path $ queue_arg $ capacity $ duration)

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let out =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output CSV path.")
  in
  let clients =
    Arg.(value & opt int 221 & info [ "clients" ] ~docv:"N" ~doc:"Client count.")
  in
  let duration =
    Arg.(
      value & opt float 7200.0
      & info [ "duration" ] ~docv:"S" ~doc:"Trace window in seconds.")
  in
  let seed = Arg.(value & opt int 101 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run out clients duration seed =
    let params =
      {
        Taq_workload.Trace.default_params with
        Taq_workload.Trace.clients;
        duration;
      }
    in
    let trace = Taq_workload.Trace.generate ~params ~seed () in
    Taq_workload.Trace.save_csv trace ~path:out;
    Printf.printf "wrote %d records (%.2f GB over %.0f s, %d clients) to %s\n"
      (Array.length trace)
      (float_of_int (Taq_workload.Trace.total_bytes trace) /. 1e9)
      (Taq_workload.Trace.duration trace)
      (Array.length (Taq_workload.Trace.client_ids trace))
      out
  in
  let doc = "Generate a synthetic proxy access trace" in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ out $ clients $ duration $ seed)

let () =
  let doc = "TAQ: Timeout Aware Queuing (EuroSys'14) reproduction toolkit" in
  let info = Cmd.info "taq_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd; sim_cmd; sweep_cmd; faults_cmd; model_cmd;
            trace_cmd; replay_cmd;
          ]))
