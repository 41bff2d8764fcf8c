(* Tests for taq_resil: the --resil parameter spec (defaults,
   overrides, canonical rendering, rejects), the recovery monitor's
   semantics against real dumbbell runs (baseline freeze, Recovered /
   No_recovery / Not_applicable), seed determinism of the resilience
   rows, the monitor's read-only contract — attaching one never
   changes the simulated trajectory — and a fault drill that is
   monitored only when its point carries resil parameters. *)

module Policy = Taq_resil.Policy
module Monitor = Taq_resil.Monitor
module Common = Taq_experiments.Common
module Fault_drill = Taq_experiments.Fault_drill
module Sweep = Taq_experiments.Sweep
module Plan = Taq_fault.Plan

(* --- Policy: spec parsing ---------------------------------------------------- *)

let params_ok s =
  match Policy.params_of_spec s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg

let test_policy_default () =
  Alcotest.(check bool)
    "empty spec is the default policy" true
    (params_ok "" = Policy.default);
  let d = Policy.default in
  Alcotest.(check (float 1e-9)) "default period" 0.5 d.Policy.period;
  Alcotest.(check int) "default sustain" 3 d.Policy.sustain

let test_policy_overrides () =
  let p = params_ok "period=0.25,sustain=5" in
  Alcotest.(check (float 1e-9)) "period overridden" 0.25 p.Policy.period;
  Alcotest.(check int) "sustain overridden" 5 p.Policy.sustain;
  Alcotest.(check (float 1e-9))
    "untouched keys keep their defaults" Policy.default.Policy.eps_jain
    p.Policy.eps_jain;
  let q =
    params_ok
      "period=1,sustain=2,eps-jain=0.1,eps-drop=0.05,eps-occ-frac=0.25,eps-occ-floor=5"
  in
  Alcotest.(check (float 1e-9)) "eps-jain" 0.1 q.Policy.eps_jain;
  Alcotest.(check (float 1e-9)) "eps-drop" 0.05 q.Policy.eps_drop;
  Alcotest.(check (float 1e-9)) "eps-occ-frac" 0.25 q.Policy.eps_occ_frac;
  Alcotest.(check (float 1e-9)) "eps-occ-floor" 5.0 q.Policy.eps_occ_floor

let test_policy_canonical () =
  (* The canonical rendering is sweep-key vocabulary: parsing it back
     must reproduce the exact parameters, and rendering is total. *)
  List.iter
    (fun spec ->
      let p = params_ok spec in
      let s = Policy.params_to_string p in
      Alcotest.(check bool)
        (Printf.sprintf "canonical %S re-parses to itself" s)
        true
        (Policy.params_of_spec s = Ok p))
    [ ""; "period=0.25"; "sustain=7,eps-occ-floor=1.5"; "eps-jain=0.01" ]

let test_policy_rejects () =
  List.iter
    (fun s ->
      match Policy.params_of_spec s with
      | Ok _ -> Alcotest.failf "spec %S should have been rejected" s
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error message non-empty" s)
            true
            (String.length msg > 0))
    [
      "period=0" (* non-positive period *);
      "period=-1" (* negative period *);
      "period=nan" (* NaN *);
      "period=inf" (* non-finite *);
      "sustain=0" (* sustain must be >= 1 *);
      "sustain=2.5" (* sustain is an integer *);
      "eps-jain=-0.1" (* negative tolerance *);
      "eps-drop=nan" (* NaN tolerance *);
      "wibble=3" (* unknown key *);
      "period" (* not key=value *);
    ]

(* --- Monitor: semantics over real runs --------------------------------------- *)

(* A small long-flow dumbbell under [plan], monitored with [params];
   returns the finalized rows. Everything derives from [seed]. *)
let monitored_run ?(params = Policy.default) ?(queue = "droptail")
    ?(seed = 1) ~plan ~until () =
  let capacity_bps = 400e3 in
  let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0 in
  let env =
    Common.make_env ~faults:plan ~resil:params
      ~queue:(Common.queue_of_disc ~capacity_bps ~buffer_pkts queue)
      ~capacity_bps ~buffer_pkts ~slice:1.0 ~seed ()
  in
  ignore (Common.spawn_long_flows env ~n:8 ~rtt:0.1 ());
  Common.run env ~until;
  match Common.resil_rows env with
  | Some rows -> rows
  | None -> Alcotest.fail "monitor requested but absent from env"

let plan_of s =
  match Plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S rejected: %s" s msg

let row rows metric =
  match List.find_opt (fun r -> r.Monitor.metric = metric) rows with
  | Some r -> r
  | None -> Alcotest.failf "no %s row" metric

let test_monitor_row_shape () =
  let rows = monitored_run ~plan:(plan_of "flap@8+2") ~until:30.0 () in
  Alcotest.(check int) "one row per metric"
    (Array.length Monitor.metric_names)
    (List.length rows);
  List.iteri
    (fun i r ->
      Alcotest.(check string) "metric order" Monitor.metric_names.(i)
        r.Monitor.metric)
    rows

let test_monitor_baseline_and_recovery () =
  (* 8 s of clean steady state, a 2 s flap, 20 s of slack: the
     baseline must be frozen and finite, fairness must visibly deviate
     during the outage (every flow stalls), and every metric must
     recover within the generous slack. *)
  let rows = monitored_run ~plan:(plan_of "flap@8+2") ~until:30.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s baseline finite" r.Monitor.metric)
        true
        (Float.is_finite r.Monitor.baseline);
      Alcotest.(check bool)
        (Printf.sprintf "%s peak deviation measured" r.Monitor.metric)
        true
        (Float.is_finite r.Monitor.peak_dev && r.Monitor.peak_dev >= 0.0);
      match r.Monitor.recovery with
      | Monitor.Recovered s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s recovery time sane" r.Monitor.metric)
            true
            (s >= 0.0 && s <= 20.0)
      | Monitor.No_recovery | Monitor.Not_applicable ->
          Alcotest.failf "%s did not recover after the flap (%s)"
            r.Monitor.metric
            (Monitor.recovery_to_string r.Monitor.recovery))
    rows;
  let jain = row rows "jain" in
  Alcotest.(check bool)
    "jain baseline is a Jain index" true
    (jain.Monitor.baseline > 0.0 && jain.Monitor.baseline <= 1.0)

let test_monitor_no_recovery () =
  (* The run ends the instant the plan clears: no post-fault sample
     can ever sustain, so every metric must report No_recovery rather
     than a fabricated time. *)
  let rows = monitored_run ~plan:(plan_of "flap@8+2") ~until:10.5 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reports no_recovery" r.Monitor.metric)
        true
        (r.Monitor.recovery = Monitor.No_recovery))
    rows

let test_monitor_empty_plan () =
  let rows = monitored_run ~plan:[] ~until:10.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s not applicable without faults" r.Monitor.metric)
        true
        (r.Monitor.recovery = Monitor.Not_applicable);
      Alcotest.(check string) "rendered as a dash" "-"
        (Monitor.recovery_to_string r.Monitor.recovery))
    rows

let test_monitor_stationary_loss () =
  (* Stationary loss never clears, so time-to-recover is undefined —
     Not_applicable, not No_recovery. *)
  let rows = monitored_run ~plan:(plan_of "loss:p=0.02") ~until:15.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n/a under stationary loss" r.Monitor.metric)
        true
        (r.Monitor.recovery = Monitor.Not_applicable))
    rows

let test_monitor_deterministic () =
  let lines () =
    List.map Monitor.row_line
      (monitored_run ~queue:"taq"
         ~plan:(plan_of "brownout@5+4:frac=0.5") ~until:25.0 ~seed:11 ())
  in
  Alcotest.(check (list string))
    "equal seeds, byte-identical resilience rows" (lines ()) (lines ())

let test_monitor_read_only () =
  (* The read-only contract: a run with the monitor attached must
     leave the packet trajectory byte-identical to the same seeded run
     without it. Compare bottleneck counters, the strictest cheap
     witness of the trajectory. *)
  let stats with_resil =
    let capacity_bps = 400e3 in
    let buffer_pkts =
      Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0
    in
    let queue = Common.queue_of_disc ~capacity_bps ~buffer_pkts "taq" in
    let env =
      if with_resil then
        Common.make_env ~faults:(plan_of "flap@4+1") ~resil:Policy.default
          ~queue ~capacity_bps ~buffer_pkts ~seed:9 ()
      else
        Common.make_env ~faults:(plan_of "flap@4+1") ~queue ~capacity_bps
          ~buffer_pkts ~seed:9 ()
    in
    ignore (Common.spawn_long_flows env ~n:6 ~rtt:0.1 ());
    Common.run env ~until:20.0;
    let s = Taq_net.Link.stats (Taq_net.Dumbbell.link env.Common.net) in
    ( s.Taq_net.Link.offered,
      s.Taq_net.Link.transmitted,
      s.Taq_net.Link.dropped,
      s.Taq_net.Link.bytes_transmitted )
  in
  Alcotest.(check bool)
    "trajectory identical with and without the monitor" true
    (stats true = stats false)

let test_monitor_row_line () =
  let r =
    {
      Monitor.metric = "jain";
      baseline = 0.875;
      peak_dev = 0.25;
      recovery = Monitor.Recovered 3.5;
    }
  in
  Alcotest.(check string)
    "default prefix"
    "resil metric=jain baseline=0.875000 peak_dev=0.250000 recover_s=3.50"
    (Monitor.row_line r);
  Alcotest.(check string)
    "custom prefix + nan as dash"
    "x metric=occupancy baseline=- peak_dev=- recover_s=no_recovery"
    (Monitor.row_line ~prefix:"x "
       {
         Monitor.metric = "occupancy";
         baseline = Float.nan;
         peak_dev = Float.nan;
         recovery = Monitor.No_recovery;
       })

(* CoDel drops at dequeue, so a window can drop packets that arrived
   in earlier windows: the drop-rate sample must stay a fraction
   anyway. The matrix's codel/cubic/longmix flap cell, with the Resil
   invariants raising on an explicit checker. *)
let test_monitor_drop_sample_in_range () =
  let check =
    Taq_check.Check.create ~mode:Taq_check.Check.Raise
      ~groups:[ Taq_check.Check.Resil ] ()
  in
  let tcp =
    match Taq_tcp.Tcp_config.of_name "cubic" with
    | Some t -> { t with Taq_tcp.Tcp_config.use_syn = false }
    | None -> Alcotest.fail "no cubic profile"
  in
  let env =
    Common.make_env ~check ~faults:(plan_of "flap@8+3") ~resil:Policy.default
      ~queue:Common.Codel ~capacity_bps:400e3 ~buffer_pkts:25 ~slice:1.0
      ~seed:
        (Taq_harness.Task.seed_of_key
           (Taq_experiments.Sweep.key
              (Taq_experiments.Sweep.Cell
                 {
                   disc = "codel";
                   tcp = "cubic";
                   workload = "longmix";
                   fault = "flap";
                   guard = None;
                 })))
      ()
  in
  ignore (Common.spawn_long_flows env ~tcp ~n:12 ~rtt:0.1 ~rtt_jitter:0.1 ());
  Common.run env ~until:30.0;
  let rows = Option.get (Common.resil_rows env) in
  let drop = row rows "drop_rate" in
  Alcotest.(check bool)
    "drop-rate deviation bounded by a fraction" true
    (drop.Monitor.peak_dev <= 1.0)

let test_env_monitor_only_with_resil () =
  (* The same faulted env is monitored only when it is given resil
     parameters. *)
  let capacity_bps = 400e3 in
  let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0 in
  let rows ?resil () =
    let env =
      Common.make_env ~faults:(plan_of "flap@4+1") ?resil
        ~queue:Common.Droptail ~capacity_bps ~buffer_pkts ~seed:9 ()
    in
    ignore (Common.spawn_long_flows env ~n:4 ~rtt:0.1 ());
    Common.run env ~until:10.0;
    Common.resil_rows env
  in
  Alcotest.(check bool) "no resil, no monitor" true (rows () = None);
  match rows ~resil:Policy.default () with
  | None -> Alcotest.fail "resil given but no monitor attached"
  | Some rows ->
      Alcotest.(check int) "one row per metric"
        (Array.length Monitor.metric_names)
        (List.length rows)

(* --- Fault drills: monitoring travels with the point ------------------------- *)

let drill_outcome ~resil =
  let scenario = Option.get (Taq_fault.Scenarios.find "flap-slow-start") in
  match Sweep.drills ~resil ~scenarios:[ scenario ] ~queues:[ "droptail" ] with
  | Ok [ d ] ->
      Taq_harness.Pool.value_exn
        (List.hd (Taq_harness.Pool.run ~jobs:1 [ Sweep.task d ]))
  | Ok ds -> Alcotest.failf "expected one drill, got %d" (List.length ds)
  | Error msg -> Alcotest.fail msg

let test_drill_resil_explicit () =
  let monitored = drill_outcome ~resil:(Some Policy.default)
  and plain = drill_outcome ~resil:None in
  Alcotest.(check (list string))
    "one recovery entry per monitored metric"
    (Array.to_list Monitor.metric_names)
    (List.map fst monitored.Fault_drill.recovery);
  Alcotest.(check int) "no recovery entries without resil" 0
    (List.length plain.Fault_drill.recovery);
  Alcotest.(check bool)
    "completed, injected and every other field unchanged" true
    ({ monitored with Fault_drill.recovery = [] } = plain)

let () =
  Alcotest.run "taq_resil"
    [
      ( "policy",
        [
          Alcotest.test_case "defaults" `Quick test_policy_default;
          Alcotest.test_case "overrides" `Quick test_policy_overrides;
          Alcotest.test_case "canonical rendering" `Quick test_policy_canonical;
          Alcotest.test_case "rejects invalid" `Quick test_policy_rejects;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "row shape" `Quick test_monitor_row_shape;
          Alcotest.test_case "baseline + recovery after flap" `Quick
            test_monitor_baseline_and_recovery;
          Alcotest.test_case "no_recovery when run ends first" `Quick
            test_monitor_no_recovery;
          Alcotest.test_case "empty plan not applicable" `Quick
            test_monitor_empty_plan;
          Alcotest.test_case "stationary loss not applicable" `Quick
            test_monitor_stationary_loss;
          Alcotest.test_case "deterministic rows" `Quick
            test_monitor_deterministic;
          Alcotest.test_case "read-only (trajectory unchanged)" `Quick
            test_monitor_read_only;
          Alcotest.test_case "row_line rendering" `Quick test_monitor_row_line;
          Alcotest.test_case "drop sample in range (codel flap)" `Quick
            test_monitor_drop_sample_in_range;
          Alcotest.test_case "make_env: only with resil" `Quick
            test_env_monitor_only_with_resil;
        ] );
      ( "drill",
        [
          Alcotest.test_case "monitored only with explicit resil" `Quick
            test_drill_resil_explicit;
        ] );
    ]
