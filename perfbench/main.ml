(* The simulator benchmark's one command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   Runs one workload (see Scenario) in this process on one domain.
   A first, untimed warm-up repeat runs with obs counters on: it yields
   the deterministic counts (events executed), the memory figures and
   the reference simulated outcome. Timed repeats follow until S
   seconds have passed.

   --trace 0 reports the end-to-end metrics: host-time medians over
   the timed repeats (obs and disc timing off) next to the simulated
   outcome. --trace 1 reports the per-layer metrics: medians over
   traced repeats (obs counters on, the disc timing wrapper installed,
   spans recorded), plus single repeats with check and obs toggled to
   price those layers; the spans go to FILE.

   Host times are calibrated (see Calib): set-up and analysis are
   scaled by the host speed measured around them, and the engine run
   segment by segment.

   Every repeat is checked (link conservation, outcome ranges) and
   must reproduce the warm-up's simulated outcome exactly. A failed
   check or an exception fails all operations of its repeat, and the
   command exits non-zero. The last stdout line is the JSON result. *)

module Scenario = Perfbench.Scenario
module Clock = Perfbench.Clock
module Calib = Perfbench.Calib
module Pct = Perfbench.Pct
module Gcmeter = Perfbench.Gcmeter
module Timed_disc = Perfbench.Timed_disc
module Spans = Perfbench.Spans

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("events_per_s", "events/s");
    ("alloc_words_per_event", "words");
    ("link_util", "fraction");
  ]

let per_layer =
  [
    ("engine.run_s", "s");
    ("engine.events_executed", "count");
    ("engine.events_scheduled", "count");
    ("engine.events_skipped", "count");
    ("engine.heap_push", "count");
    ("engine.heap_max_depth", "count");
    ("engine.ns_per_event", "ns");
    ("net.offered", "count");
    ("net.transmitted", "count");
    ("net.dropped", "count");
    ("net.delivered_ratio", "fraction");
    ("disc.enqueue_calls", "count");
    ("disc.dequeue_calls", "count");
    ("disc.self_s", "s");
    ("disc.ns_per_op", "ns");
    ("disc.share", "fraction");
    ("core.flows_created", "count");
    ("core.evictions", "count");
    ("core.peak_tracked", "count");
    ("core.active_flows_end", "count");
    ("core.admission_rejected", "count");
    ("core.forced_recovery_drops", "count");
    ("core.drops.recovery", "count");
    ("core.drops.new-flow", "count");
    ("core.drops.over-penalized", "count");
    ("core.drops.below-fair-share", "count");
    ("core.drops.above-fair-share", "count");
    ("tcp.data_sent", "count");
    ("tcp.retx_sent", "count");
    ("tcp.timeouts", "count");
    ("tcp.fast_retransmits", "count");
    ("tcp.retx_ratio", "fraction");
    ("workload.gen_s", "s");
    ("workload.fetches_requested", "count");
    ("workload.fetches_completed", "count");
    ("workload.conns_opened", "count");
    ("metrics.analyze_s", "s");
    ("check.checks_run", "count");
    ("check.violations", "count");
    ("check.overhead_s", "s");
    ("obs.overhead_s", "s");
    ("trace.overhead_s", "s");
    ("harness.overhead_s", "s");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_words", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.peak_heap_mb", "MB");
    ("gc.live_mb", "MB");
    ("outcome.jain_short", "index");
    ("outcome.hang_p50_s", "s");
    ("outcome.hang_p90_s", "s");
    ("outcome.fct_p50_s", "s");
    ("outcome.fct_tail_s", "s");
    ("outcome.fct_tail_pct", "percentile");
    ("outcome.fct_n", "count");
    ("outcome.fetch_fail_frac", "fraction");
  ]

(* Why per-layer metrics read 0 on a workload. *)
let unmeasured_reason = function
  | "taq-pools" | "taq-churn" ->
      "tcp.*: the senders live inside Web_session and cannot be reached \
       from outside; harness.*: no harness loop"
  | "droptail-long" ->
      "core.*, workload.*: no TAQ core and no web sessions; harness.*: no \
       harness loop"
  | "matrix-checked" ->
      "disc.*, tcp.*, core.peak_tracked/active_flows_end: built inside \
       Matrix.run_cell, out of the benchmark's reach; check.checks_run: \
       run_cell's checkers are ambient instances (a violation raises)"
  | _ -> ""

(* --- arguments ------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 15.0
let trace = ref 0
let spans_path = ref ""

let usage =
  Printf.sprintf
    "main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--spans FILE]"
    (String.concat "|" (List.map (fun w -> w.Scenario.name) Scenario.all))

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans_path, "FILE where the traced run's spans go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

(* --- repeats -------------------------------------------------------------- *)

(* Set-ups per repeat: set-up is short, so it is sampled more often. *)
let setups_per_repeat = 3

(* Host times are calibrated seconds (raw seconds times [speed]). *)
type rep = {
  setup_s : float list;
  run_s : float;
  analyze_s : float;
  self_s : float option;  (** disc time, when the timer was installed *)
  speed : float;  (** the host-speed factor measured around this repeat *)
  calls : int * int;
  gc : Gcmeter.reading;  (** over the run phase *)
  live_mb : float;  (** major heap live after the run, when measured *)
  outcome : Scenario.outcome;
  layers : (string * float) list;
}

let wall r = r.run_s +. r.analyze_s

let attempted = ref 0
let failed = ref 0
let failures = ref []
let ops_hint = ref 1
let reference = ref None

let fail ~ops msg =
  failed := !failed + ops;
  failures := msg :: !failures;
  Printf.eprintf "perfbench: FAILED: %s\n%!" msg

(* The engine run, calibrated segment by segment: the kernel runs
   between segments (untimed) and each segment's time is scaled by the
   host speed measured on either side of it. Returns calibrated and raw
   seconds, and the kernel time after the last segment. *)
let calibrated_run (built : Scenario.built) ~kernel_before =
  let norm = ref 0.0 and raw = ref 0.0 and k_prev = ref kernel_before in
  let t = ref (Clock.now_ns ()) in
  let between () =
    let dt = Clock.since !t in
    let k = Calib.measure () in
    raw := !raw +. dt;
    norm := !norm +. (dt *. Calib.speed ~before:!k_prev ~after:k);
    k_prev := k;
    t := Clock.now_ns ()
  in
  built.Scenario.run ~between;
  between ();
  (!norm, !raw, !k_prev)

let repeat ?(measure_live = false) (w : Scenario.workload) ~label
    (opts : Scenario.opts) =
  let gc_exact = opts.Scenario.timer <> None in
  let setup () =
    Clock.time (fun () ->
        Scenario.span opts "setup" (fun () -> w.setup opts ~seed:!seed))
  in
  match
    Scenario.span opts label (fun () ->
        let k_setup = Calib.measure () in
        let setups = List.init setups_per_repeat (fun _ -> setup ()) in
        let built = fst (List.nth setups (setups_per_repeat - 1)) in
        ops_hint := built.Scenario.ops;
        if gc_exact then Gc.minor ();
        let k_run = Calib.measure () in
        let g0 = Gcmeter.read () and kernel_words = !Calib.words in
        let run_s, raw_run_s, k_end =
          Scenario.span opts "run" (fun () ->
              calibrated_run built ~kernel_before:k_run)
        in
        if gc_exact then Gc.minor ();
        let gc = Gcmeter.diff (Gcmeter.read ()) g0 in
        let gc =
          { gc with Gcmeter.minor = gc.Gcmeter.minor -. (!Calib.words -. kernel_words) }
        in
        let live_mb = if measure_live then Gcmeter.live_mb () else 0.0 in
        let outcome, analyze_s =
          Clock.time (fun () ->
              Scenario.span opts "analyze" built.Scenario.analyze)
        in
        let checks = built.Scenario.verify () @ Scenario.verify_outcome outcome in
        let timer = opts.Scenario.timer in
        let setup_speed = Calib.speed ~before:k_setup ~after:k_run in
        let run_speed = run_s /. raw_run_s in
        let analyze_speed = Calib.speed ~before:k_end ~after:(Calib.measure ()) in
        ( built.Scenario.ops,
          List.filter_map (function Ok () -> None | Error e -> Some e) checks,
          {
            setup_s = List.map (fun (_, s) -> s *. setup_speed) setups;
            run_s;
            analyze_s = analyze_s *. analyze_speed;
            self_s = Option.map (fun t -> Timed_disc.self_s t *. run_speed) timer;
            speed = run_speed;
            calls =
              (match timer with
              | Some t -> (Timed_disc.enqueue_calls t, Timed_disc.dequeue_calls t)
              | None -> (0, 0));
            gc;
            live_mb;
            outcome;
            layers = built.Scenario.layers ();
          } ))
  with
  | exception e ->
      attempted := !attempted + !ops_hint;
      fail ~ops:!ops_hint
        (Printf.sprintf "%s repeat raised %s" label (Printexc.to_string e));
      None
  | ops, errors, r -> (
      attempted := !attempted + ops;
      let errors =
        match !reference with
        | Some o when compare o r.outcome <> 0 ->
            (label ^ ": simulated outcome differs from the warm-up repeat")
            :: errors
        | Some _ -> errors
        | None ->
            reference := Some r.outcome;
            errors
      in
      match errors with
      | [] -> Some r
      | _ ->
          fail ~ops (label ^ ": " ^ String.concat "; " errors);
          None)

let opts ?timer ?spans ~check_on ~obs_on () =
  { Scenario.check_on; obs_on; timer; spans }

let median xs = (Pct.summarize (Array.of_list xs)).Pct.median

(* Repeats until [until] seconds after [t0] (at least [min]); stops at
   the first failure. *)
let repeat_until w ~t0 ~until ~min ~label mk =
  let rec go acc i =
    if i >= min && Clock.since t0 >= until then List.rev acc
    else
      match repeat w ~label:(Printf.sprintf "%s %d" label i) (mk ()) with
      | Some r -> go (r :: acc) (i + 1)
      | None -> List.rev acc
  in
  go [] 0

let layer r name = List.assoc_opt name r.layers

let report_phase name xs =
  if xs <> [] then
    Printf.printf "  %-9s %s\n" name
      (Pct.to_string ~unit:"s" (Pct.summarize (Array.of_list xs)))

let report_outcome (o : Scenario.outcome) =
  Printf.printf "  jain_short=%.6f link_util=%.6f\n" o.jain_short o.link_util;
  Option.iter
    (fun (p50, p90) ->
      Printf.printf "  hang_p50_s=%.4f hang_p90_s=%.4f (each user's longest hang)\n"
        p50 p90)
    o.hang;
  Option.iter
    (fun p -> Printf.printf "  fct: %s\n" (Pct.to_string ~unit:"s" p))
    o.fct;
  Option.iter
    (fun (bad, n) ->
      Printf.printf "  fetch_fail_frac=%.6f (%d of %d refused or unfinished)\n"
        (float_of_int bad /. float_of_int (max 1 n))
        bad n)
    o.fetches

let outcome_layers (o : Scenario.outcome) =
  ("outcome.jain_short", o.jain_short)
  :: (match o.hang with
  | Some (p50, p90) -> [ ("outcome.hang_p50_s", p50); ("outcome.hang_p90_s", p90) ]
  | None -> [])
  @ (match o.fct with
    | Some p ->
        [ ("outcome.fct_p50_s", p.Pct.median); ("outcome.fct_n", float_of_int p.Pct.n) ]
        @ (match p.Pct.tail with
          | Some (pct, v) -> [ ("outcome.fct_tail_s", v); ("outcome.fct_tail_pct", pct) ]
          | None -> [])
    | None -> [])
  @
  match o.fetches with
  | Some (bad, n) ->
      [ ("outcome.fetch_fail_frac", float_of_int bad /. float_of_int (max 1 n)) ]
  | None -> []

(* --- the two reports -------------------------------------------------------- *)

let end_to_end_metrics w ~t0 ~warm ~events ~default =
  let reps = repeat_until w ~t0 ~until:!seconds ~min:3 ~label:"timed" default in
  Printf.printf "calibrated host time over %d timed repeats:\n" (List.length reps);
  report_phase "setup" (List.concat_map (fun r -> r.setup_s) reps);
  report_phase "run" (List.map (fun r -> r.run_s) reps);
  report_phase "analyze" (List.map (fun r -> r.analyze_s) reps);
  report_phase "wall" (List.map wall reps);
  report_phase "calib" (List.map (fun r -> Calib.nominal_s /. r.speed) reps);
  if reps = [] then []
  else
    let med g = median (List.map g reps) in
    [
      ("wall_s", med wall);
      ("setup_s", median (List.concat_map (fun r -> r.setup_s) reps));
      ("events_per_s", events /. med (fun r -> r.run_s));
      ("alloc_words_per_event", med (fun r -> r.gc.Gcmeter.minor) /. events);
      ("link_util", warm.outcome.Scenario.link_util);
    ]

let write_spans sp =
  let path =
    if !spans_path <> "" then !spans_path
    else Printf.sprintf "perfbench/out/spans-%s-seed%d.json" !workload !seed
  in
  let rec mkdirs d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc (Spans.to_json sp));
  Printf.printf "spans: %d written to %s\n" (Spans.count sp) path

let per_layer_metrics (w : Scenario.workload) ~t0 ~warm ~events ~peak_heap_mb
    ~default =
  let untraced =
    repeat_until w ~t0 ~until:(0.4 *. !seconds) ~min:2 ~label:"untraced" default
  in
  let sp = Spans.create () in
  let traced =
    repeat_until w ~t0 ~until:(0.8 *. !seconds) ~min:2 ~label:"traced" (fun () ->
        opts ~timer:(Timed_disc.create ()) ~spans:sp ~check_on:w.default_check
          ~obs_on:true ())
  in
  (* Price the check and obs layers: one repeat per (check, obs)
     setting the untraced repeats did not already measure. *)
  let wall_at ~check_on ~obs_on =
    if check_on = w.default_check && obs_on = w.default_obs then
      ( (if untraced = [] then None
         else Some (median (List.map wall untraced))),
        None )
    else
      match
        repeat w ~label:(Printf.sprintf "check=%b obs=%b" check_on obs_on)
          (opts ~check_on ~obs_on ())
      with
      | Some r -> (Some (wall r), Some r)
      | None -> (None, None)
  in
  let plain, _ = wall_at ~check_on:false ~obs_on:false in
  let counted, _ = wall_at ~check_on:false ~obs_on:true in
  let checked, checked_rep = wall_at ~check_on:true ~obs_on:true in
  write_spans sp;
  if untraced = [] || traced = [] then []
  else
    let med g = median (List.map g traced) in
    let untraced_wall = median (List.map wall untraced) in
    let traced_wall = med wall in
    let self r = Option.value r.self_s ~default:0.0 in
    let layer_or r k ~default = Option.value (layer r k) ~default in
    let events_of r = layer_or r "engine.events_executed" ~default:events in
    let diff a b =
      match (a, b) with Some a, Some b -> [ a -. b ] | _ -> []
    in
    let last = List.nth traced (List.length traced - 1) in
    let enq, deq = last.calls in
    let have_disc = enq + deq > 0 in
    let gc name g = (name, med (fun r -> g r.gc)) in
    let measured =
      (* Counters repeat exactly; host times (workload.gen_s) vary, so
         every layer value is a median over the traced repeats. *)
      List.map (fun (k, _) -> (k, med (fun r -> layer_or r k ~default:0.0))) last.layers
      @ outcome_layers warm.outcome
      @ [
          ("engine.run_s", med (fun r -> r.run_s));
          ( "engine.ns_per_event",
            med (fun r -> (r.run_s -. self r) /. events_of r *. 1e9) );
          ("metrics.analyze_s", med (fun r -> r.analyze_s));
          ("trace.overhead_s", traced_wall -. untraced_wall);
          gc "gc.minor_words" (fun g -> g.Gcmeter.minor);
          gc "gc.promoted_words" (fun g -> g.Gcmeter.promoted);
          gc "gc.major_words" (fun g -> g.Gcmeter.major);
          gc "gc.minor_collections" (fun g -> float_of_int g.Gcmeter.minor_collections);
          gc "gc.major_collections" (fun g -> float_of_int g.Gcmeter.major_collections);
          ("gc.peak_heap_mb", peak_heap_mb);
          ("gc.live_mb", warm.live_mb);
        ]
      @ List.map (fun x -> ("check.overhead_s", x)) (diff checked counted)
      @ List.map (fun x -> ("obs.overhead_s", x)) (diff counted plain)
      @ (match checked_rep with
        | Some r ->
            List.filter (fun (k, _) -> String.starts_with ~prefix:"check." k) r.layers
        | None -> [])
      @ (if w.default_check then [ ("check.violations", 0.0) ] else [])
      @ (if layer last "matrix.cells_s" = None then []
         else
           [
             ( "harness.overhead_s",
               med (fun r ->
                   r.run_s -. (layer_or r "matrix.cells_s" ~default:0.0 *. r.speed)) );
           ])
      @
      if have_disc then
        [
          ("disc.enqueue_calls", float_of_int enq);
          ("disc.dequeue_calls", float_of_int deq);
          ("disc.self_s", med self);
          ( "disc.ns_per_op",
            med (fun r -> self r /. float_of_int (fst r.calls + snd r.calls) *. 1e9) );
          ("disc.share", med (fun r -> self r /. r.run_s));
        ]
      else []
    in
    Printf.printf
      "traced: %d repeats, wall median %.4fs vs untraced %.4fs (%d repeats): \
       tracing overhead %+.4fs\n"
      (List.length traced) traced_wall untraced_wall (List.length untraced)
      (traced_wall -. untraced_wall);
    if have_disc then
      Printf.printf "disc.share=%.4f of engine.run_s\n"
        (med (fun r -> self r /. r.run_s));
    let missing =
      List.filter (fun (k, _) -> not (List.mem_assoc k measured)) per_layer
    in
    if missing <> [] then
      Printf.printf "not measured on %s (reported as 0): %s\n  (%s)\n" w.name
        (String.concat " " (List.map fst missing))
        (unmeasured_reason w.name);
    List.map
      (fun (k, _) -> (k, Option.value (List.assoc_opt k measured) ~default:0.0))
      per_layer

let print_result metrics =
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!failures = []) (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit)
          metrics));
  print_newline ()

let () =
  let w =
    match Scenario.find !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  Gcmeter.configure ();
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d (1 domain, jobs 1)\n"
    w.name !seed !seconds !trace;
  Printf.printf "%s\n" (Gcmeter.describe ());
  (match Gcmeter.self_test () with
  | Ok words -> Printf.printf "gc self-test: ok (%.0f words)\n" words
  | Error e -> fail ~ops:0 e);
  let default () = opts ~check_on:w.default_check ~obs_on:w.default_obs () in
  let warm =
    repeat ~measure_live:true w ~label:"warm-up"
      (opts ~check_on:w.default_check ~obs_on:true ())
  in
  let peak_heap_mb = Gcmeter.peak_heap_mb () in
  let t0 = Clock.now_ns () in
  let metrics =
    match warm with
    | None -> []
    | Some warm ->
        Printf.printf "outcome (simulated, deterministic for the seed):\n";
        report_outcome warm.outcome;
        let events =
          match layer warm "engine.events_executed" with
          | Some e when e > 0.0 -> e
          | _ -> 1.0
        in
        if !trace = 0 then end_to_end_metrics w ~t0 ~warm ~events ~default
        else per_layer_metrics w ~t0 ~warm ~events ~peak_heap_mb ~default
  in
  let declared = if !trace = 0 then end_to_end else per_layer in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name metrics with
        | Some v when Float.is_finite v -> (name, unit, v)
        | Some _ | None ->
            fail ~ops:0 (Printf.sprintf "metric %s was not measured" name);
            (name, unit, 0.0))
      declared
  in
  (* A failure outside any repeat's operations still fails the run. *)
  if !failures <> [] && !failed = 0 then failed := max 1 !attempted;
  print_result metrics;
  exit (if !failures = [] then 0 else 1)
