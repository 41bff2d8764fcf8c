(* Unit tests for the benchmark's own machinery: the percentile helper,
   the GC self-test, and the transparency of the disc timing wrapper. *)

module Pct = Perfbench.Pct
module Scenario = Perfbench.Scenario
module Sim = Taq_engine.Sim
module Link = Taq_net.Link
module Dumbbell = Taq_net.Dumbbell
module Obs = Taq_obs.Obs
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Taq_config = Taq_core.Taq_config
module Web_session = Taq_workload.Web_session

let samples n = Array.init n (fun i -> float_of_int (n - i))

let tail n = (Pct.summarize (samples n)).Pct.tail

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 3.0 (Pct.summarize [| 5.; 1.; 3. |]).Pct.median;
  Alcotest.(check (float 0.0)) "even" 2.5 (Pct.summarize [| 4.; 1.; 3.; 2. |]).Pct.median;
  Alcotest.(check int) "n" 4 (Pct.summarize [| 4.; 1.; 3.; 2. |]).Pct.n;
  Alcotest.check_raises "empty" (Invalid_argument "Pct.summarize: empty") (fun () ->
      ignore (Pct.summarize [||]))

let test_tail_ladder () =
  let check name expected n =
    Alcotest.(check (option (pair (float 0.0) (float 0.0)))) name expected (tail n)
  in
  (* Below 40 samples even p75 has fewer than 10 beyond it. *)
  check "n=1 median only" None 1;
  check "n=19 median only" None 19;
  check "n=39 median only" None 39;
  check "n=40 p75" (Some (75.0, 30.0)) 40;
  check "n=100 p90" (Some (90.0, 90.0)) 100;
  check "n=999 p95, not p99 (9 beyond)" (Some (95.0, 950.0)) 999;
  check "n=1000 p99" (Some (99.0, 990.0)) 1000;
  check "n=10000 p99.9" (Some (99.9, 9990.0)) 10000

let test_tail_has_ten_beyond () =
  List.iter
    (fun n ->
      let xs = samples n in
      match (Pct.summarize xs).Pct.tail with
      | None -> Alcotest.(check bool) "only small samples lack a tail" true (n < 40)
      | Some (_, v) ->
          let beyond = Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 xs in
          Alcotest.(check bool) (Printf.sprintf "n=%d: %d beyond" n beyond) true
            (beyond >= Pct.min_beyond))
    [ 1; 2; 10; 20; 39; 40; 41; 99; 100; 101; 250; 999; 1000; 1001; 5000; 9999; 10000; 12345 ]

let test_to_string () =
  Alcotest.(check string) "median only" "median=2s n=3 (too few samples for a tail)"
    (Pct.to_string ~unit:"s" (Pct.summarize [| 1.; 2.; 3. |]));
  Alcotest.(check string) "with tail" "median=50.5s p90=90s n=100"
    (Pct.to_string ~unit:"s" (Pct.summarize (samples 100)))

let test_gc_self_test () =
  match Perfbench.Gcmeter.self_test () with
  | Ok words -> Alcotest.(check bool) "moved" true (words > 0.0)
  | Error e -> Alcotest.fail e

(* A small scenario through the benchmark's own plumbing, with or
   without the timing wrapper: a few long flows plus two web users. *)
let small ~taq ~timer =
  let capacity_bps = 400e3 and buffer_pkts = 20 in
  let opts = { Scenario.check_on = false; obs_on = true; timer; spans = None } in
  let taq_config =
    if taq then Some (Taq_config.default ~capacity_pkts:buffer_pkts ~capacity_bps)
    else None
  in
  let n = Scenario.make_net opts ~capacity_bps ~buffer_pkts ~taq_config in
  for i = 0 to 5 do
    let s =
      Tcp_session.create ~net:n.Scenario.net ~config:Tcp_config.default
        ~rtt_prop:(0.05 +. (0.02 *. float_of_int i))
        ~total_segments:max_int ()
    in
    Tcp_session.start s
  done;
  for pool = 0 to 1 do
    let w =
      Web_session.create ~net:n.Scenario.net ~tcp:(Tcp_config.make ~use_syn:true ())
        ~pool ~rtt:0.1 ~max_conns:4 ()
    in
    for _ = 1 to 30 do
      Web_session.request w ~size:5_000
    done;
    Web_session.start w
  done;
  Sim.run ~until:20.0 n.Scenario.sim;
  let snap = Obs.snapshot n.Scenario.obs in
  (snap.Obs.counters, snap.Obs.gauges, Link.stats (Dumbbell.link n.Scenario.net))

let test_wrapper_transparent taq () =
  let timer = Perfbench.Timed_disc.create () in
  let bare = small ~taq ~timer:None in
  let wrapped = small ~taq ~timer:(Some timer) in
  let counters (c, _, _) = c and gauges (_, g, _) = g and stats (_, _, s) = s in
  Alcotest.(check (list (pair string int))) "obs counters" (counters bare) (counters wrapped);
  Alcotest.(check (list (pair string int))) "obs gauges" (gauges bare) (gauges wrapped);
  Alcotest.(check bool) "Link.stats" true (stats bare = stats wrapped);
  Alcotest.(check bool) "traffic flowed" true ((stats bare).Link.transmitted > 1000);
  Alcotest.(check int) "every offer timed" (stats bare).Link.offered
    (Perfbench.Timed_disc.enqueue_calls timer);
  Alcotest.(check bool) "time recorded" true (Perfbench.Timed_disc.self_s timer > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail ladder" `Quick test_tail_ladder;
          Alcotest.test_case "ten beyond the tail" `Quick test_tail_has_ten_beyond;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ("gc", [ Alcotest.test_case "self-test" `Quick test_gc_self_test ]);
      ( "timed_disc",
        [
          Alcotest.test_case "transparent on TAQ" `Quick (test_wrapper_transparent true);
          Alcotest.test_case "transparent on droptail" `Quick
            (test_wrapper_transparent false);
        ] );
    ]
