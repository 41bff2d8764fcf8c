(* Tests for the discrete-event engine: heap ordering, FIFO tie-break,
   scheduling, cancellation, run-until semantics — plus the
   differential battery that locks the flat struct-of-arrays heap and
   the pooled slot-table scheduler to their boxed reference
   semantics. *)

open Taq_engine

(* --- Event_heap ------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  List.iteri
    (fun i t -> Event_heap.push h ~time:t i)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | None -> ()
    | Some (t, _) ->
        order := t :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:1.0 i
  done;
  let order = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int))
    "insertion order preserved on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_heap_empty () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Event_heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Event_heap.peek_time h = None);
  (match Event_heap.top_time h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "top_time on empty should raise");
  match Event_heap.pop_payload h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pop_payload on empty should raise"

let test_heap_interleaved () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:2.0 1;
  Event_heap.push h ~time:1.0 2;
  (match Event_heap.pop h with
  | Some (_, 2) -> ()
  | _ -> Alcotest.fail "expected payload 2");
  Event_heap.push h ~time:0.5 3;
  (match Event_heap.pop h with
  | Some (_, 3) -> ()
  | _ -> Alcotest.fail "expected payload 3");
  Alcotest.(check int) "one left" 1 (Event_heap.size h)

let test_heap_large_random () =
  let prng = Taq_util.Prng.create ~seed:77 in
  let h = Event_heap.create () in
  let n = 10_000 in
  for i = 1 to n do
    Event_heap.push h ~time:(Taq_util.Prng.float prng 1000.0) i
  done;
  let last = ref neg_infinity in
  let rec drain count =
    match Event_heap.pop h with
    | None -> count
    | Some (t, _) ->
        if t < !last then Alcotest.failf "heap disorder: %g after %g" t !last;
        last := t;
        drain (count + 1)
  in
  Alcotest.(check int) "all drained" n (drain 0)

let test_heap_clear_keeps_capacity () =
  let h = Event_heap.create () in
  for i = 1 to 100 do
    Event_heap.push h ~time:(float_of_int i) i
  done;
  let cap = Event_heap.capacity h in
  Alcotest.(check bool) "grew" true (cap >= 100);
  Event_heap.clear h;
  Alcotest.(check int) "empty after clear" 0 (Event_heap.size h);
  Alcotest.(check int) "max_size reset" 0 (Event_heap.max_size h);
  Alcotest.(check int) "capacity kept (warm heap)" cap (Event_heap.capacity h);
  (* The cleared heap is immediately reusable without reallocating. *)
  for i = 1 to 50 do
    Event_heap.push h ~time:(float_of_int (51 - i)) i
  done;
  Alcotest.(check int) "capacity unchanged on reuse" cap
    (Event_heap.capacity h);
  Alcotest.(check int) "max_size tracks anew" 50 (Event_heap.max_size h);
  match Event_heap.pop h with
  | Some (1.0, 50) -> ()
  | _ -> Alcotest.fail "reused heap must order correctly"

(* --- Sim -------------------------------------------------------------- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log));
  ignore (Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~at:3.0 (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "in time order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let observed = ref nan in
  ignore (Sim.schedule sim ~at:1.5 (fun () -> observed := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "clock at event time" 1.5 !observed

let test_sim_schedule_after () =
  let sim = Sim.create () in
  let observed = ref nan in
  ignore
    (Sim.schedule sim ~at:1.0 (fun () ->
         ignore
           (Sim.schedule_after sim ~delay:0.5 (fun () -> observed := Sim.now sim))));
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "relative delay" 1.5 !observed

let test_sim_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:5.0 (fun () -> ()));
  Sim.run sim;
  match Sim.schedule sim ~at:1.0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheduling in the past should raise"

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Sim.is_pending sim h);
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check bool) "not pending" false (Sim.is_pending sim h)

let test_sim_cancel_from_event () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:2.0 (fun () -> fired := true) in
  ignore (Sim.schedule sim ~at:1.0 (fun () -> Sim.cancel sim h));
  Sim.run sim;
  Alcotest.(check bool) "cancelled by earlier event" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~at:(float_of_int i) (fun () -> incr count))
  done;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "only events <= until" 5 !count;
  Alcotest.(check (float 1e-12)) "clock parked at until" 5.5 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest run afterwards" 10 !count

let test_sim_until_boundary_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~at:2.0 (fun () -> fired := true));
  Sim.run ~until:2.0 sim;
  Alcotest.(check bool) "event exactly at until runs" true !fired

let test_sim_step () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log));
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check (list int)) "only first" [ 1 ] !log;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim)

let test_sim_cascading_events () =
  (* An event chain that reschedules itself a fixed number of times. *)
  let sim = Sim.create () in
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 100 then ignore (Sim.schedule_after sim ~delay:0.1 hop)
  in
  ignore (Sim.schedule sim ~at:0.0 hop);
  Sim.run sim;
  Alcotest.(check int) "all hops" 100 !hops;
  Alcotest.(check (float 1e-6)) "time accumulated" 9.9 (Sim.now sim)

let test_sim_same_time_event_scheduled_during_event () =
  (* An event scheduling another event at the same timestamp must run it
     in the same run (after the current one). *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~at:1.0 (fun () ->
         log := "first" :: !log;
         ignore (Sim.schedule sim ~at:1.0 (fun () -> log := "second" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "both ran" [ "first"; "second" ] (List.rev !log)

(* --- pooled slot table: stale-handle semantics ------------------------- *)

let test_sim_stale_handle_inert () =
  (* Cancel frees the slot; the next schedule recycles it under a new
     generation. The stale handle must then be inert: is_pending false,
     cancel a no-op that does NOT kill the slot's new occupant, and the
     old action must never fire. *)
  let sim = Sim.create () in
  let fired_old = ref false and fired_new = ref false in
  let h_old = Sim.schedule sim ~at:1.0 (fun () -> fired_old := true) in
  Sim.cancel sim h_old;
  let h_new = Sim.schedule sim ~at:2.0 (fun () -> fired_new := true) in
  Alcotest.(check bool) "stale not pending" false (Sim.is_pending sim h_old);
  Alcotest.(check bool) "new occupant pending" true (Sim.is_pending sim h_new);
  Sim.cancel sim h_old;
  (* double cancel through the stale handle *)
  Alcotest.(check bool)
    "stale cancel spares new occupant" true
    (Sim.is_pending sim h_new);
  Sim.run sim;
  Alcotest.(check bool) "old action never fires" false !fired_old;
  Alcotest.(check bool) "new occupant fires" true !fired_new;
  Alcotest.(check bool) "fired handle goes stale" false (Sim.is_pending sim h_new);
  Alcotest.(check bool) "none never pending" false (Sim.is_pending sim Sim.none);
  Sim.cancel sim Sim.none

let test_sim_handle_stale_after_fire () =
  (* A handle whose event has fired is stale even once its slot has
     been recycled by later scheduling. *)
  let sim = Sim.create () in
  let h1 = Sim.schedule sim ~at:1.0 (fun () -> ()) in
  Sim.run sim;
  let recycled_fired = ref false in
  let h2 = Sim.schedule sim ~at:2.0 (fun () -> recycled_fired := true) in
  Alcotest.(check bool) "fired handle stale" false (Sim.is_pending sim h1);
  Sim.cancel sim h1;
  Alcotest.(check bool)
    "cancel via fired handle spares recycled slot" true
    (Sim.is_pending sim h2);
  Sim.run sim;
  Alcotest.(check bool) "recycled event ran" true !recycled_fired

(* --- qcheck properties ------------------------------------------------- *)

let prop_cancelled_events_never_fire =
  (* Random schedules with random cancellations: a cancelled event must
     never run, everything else must run exactly once, in time order. *)
  QCheck.Test.make ~name:"cancelled events never fire" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (pair (float_range 0.0 100.0) bool))
    (fun plan ->
      let sim = Sim.create () in
      let fired = Array.make (List.length plan) 0 in
      let handles =
        List.mapi
          (fun i (at, _) ->
            Sim.schedule sim ~at (fun () -> fired.(i) <- fired.(i) + 1))
          plan
      in
      List.iteri
        (fun i (_, cancel) -> if cancel then Sim.cancel sim (List.nth handles i))
        plan;
      Sim.run sim;
      List.for_all2
        (fun (_, cancelled) count -> count = (if cancelled then 0 else 1))
        plan (Array.to_list fired))

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap always drains sorted" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0.0 1e6))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i t -> Event_heap.push h ~time:t i) times;
      let rec drain last ok =
        match Event_heap.pop h with
        | None -> ok
        | Some (t, _) -> drain t (ok && t >= last)
      in
      drain neg_infinity true)

(* Differential battery: the flat struct-of-arrays heap run lock-step
   against the retained boxed reference under random push/pop/clear
   interleavings. Times are drawn from a small discrete grid so ties
   are frequent — the FIFO tie-break must match exactly — and after
   every operation the size/max_size trajectories must agree. *)
let prop_heap_matches_reference =
  (* op encoding: 0..7 push at time (op / 2.), 8..9 pop, 10 clear *)
  let op_gen = QCheck.Gen.int_range 0 10 in
  QCheck.Test.make ~name:"flat heap == boxed reference (differential)"
    ~count:500
    QCheck.(make ~print:Print.(list int) Gen.(list_size (int_range 0 300) op_gen))
    (fun ops ->
      let flat = Event_heap.create () in
      let boxed = Event_heap_ref.create () in
      let payload = ref 0 in
      let agree where =
        if Event_heap.size flat <> Event_heap_ref.size boxed then
          QCheck.Test.fail_reportf "%s: size %d <> ref %d" where
            (Event_heap.size flat) (Event_heap_ref.size boxed);
        if Event_heap.max_size flat <> Event_heap_ref.max_size boxed then
          QCheck.Test.fail_reportf "%s: max_size %d <> ref %d" where
            (Event_heap.max_size flat)
            (Event_heap_ref.max_size boxed);
        if Event_heap.peek_time flat <> Event_heap_ref.peek_time boxed then
          QCheck.Test.fail_reportf "%s: peek_time disagrees" where
      in
      List.iter
        (fun op ->
          if op <= 7 then begin
            let time = float_of_int op /. 2.0 in
            incr payload;
            Event_heap.push flat ~time !payload;
            Event_heap_ref.push boxed ~time !payload;
            agree "push"
          end
          else if op <= 9 then begin
            let a = Event_heap.pop flat and b = Event_heap_ref.pop boxed in
            if a <> b then
              QCheck.Test.fail_reportf
                "pop disagrees: flat=%s ref=%s"
                (match a with
                | None -> "None"
                | Some (t, v) -> Printf.sprintf "(%g,%d)" t v)
                (match b with
                | None -> "None"
                | Some (t, v) -> Printf.sprintf "(%g,%d)" t v);
            agree "pop"
          end
          else begin
            Event_heap.clear flat;
            Event_heap_ref.clear boxed;
            agree "clear"
          end)
        ops;
      (* Drain both completely: total order including all remaining
         ties must coincide. *)
      let rec drain () =
        let a = Event_heap.pop flat and b = Event_heap_ref.pop boxed in
        if a <> b then QCheck.Test.fail_report "drain order disagrees";
        if a <> None then drain ()
      in
      drain ();
      true)

(* Metamorphic pooled-scheduler property. Events are scheduled first
   (so they get the earlier FIFO seqs), then for some a canceller event
   is scheduled at a random time. At equal timestamps the event fires
   before its canceller (earlier seq), so the model is: event i fires
   iff it has no canceller strictly earlier than its own time. The
   fired order must equal the model's (time, schedule-seq) sort. *)
let prop_pooled_scheduler_matches_model =
  let grid = 8 in
  QCheck.Test.make ~name:"pooled scheduler == list model (metamorphic)"
    ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (pair (int_range 0 (grid - 1)) (option (int_range 0 (grid - 1)))))
    (fun plan ->
      let sim = Sim.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (at, _) ->
            Sim.schedule sim ~at:(float_of_int at) (fun () ->
                fired := i :: !fired))
          plan
      in
      List.iteri
        (fun i (_, cancel_at) ->
          match cancel_at with
          | None -> ()
          | Some c ->
              let h = List.nth handles i in
              ignore
                (Sim.schedule sim ~at:(float_of_int c) (fun () ->
                     Sim.cancel sim h)))
        plan;
      Sim.run sim;
      let expected =
        List.mapi (fun i (at, cancel_at) -> (i, at, cancel_at)) plan
        |> List.filter (fun (_, at, cancel_at) ->
               match cancel_at with None -> true | Some c -> c >= at)
        |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
        |> List.map (fun (i, _, _) -> i)
      in
      let got = List.rev !fired in
      if got <> expected then
        QCheck.Test.fail_reportf "fired [%s] <> model [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected));
      (* Post-run, every handle is stale: is_pending is false and a
         blanket cancel must not disturb a fresh second round that
         recycles all the slots. *)
      if List.exists (Sim.is_pending sim) handles then
        QCheck.Test.fail_report "handle still pending after run";
      let second = ref 0 in
      let n = List.length plan in
      let fresh =
        List.init n (fun _ -> Sim.schedule_after sim ~delay:1.0 (fun () -> incr second))
      in
      List.iter (Sim.cancel sim) handles;
      if not (List.for_all (Sim.is_pending sim) fresh) then
        QCheck.Test.fail_report "stale cancel killed a recycled slot";
      Sim.run sim;
      !second = n)

(* The int-payload fast path ([schedule_i]) must be indistinguishable
   from [schedule] with a capturing closure: same firing order against
   a mixed plan, correct argument delivery, cancellable, and stale
   after firing. *)
let prop_schedule_i_matches_schedule =
  let grid = 8 in
  QCheck.Test.make ~name:"schedule_i == schedule (mixed plan)" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (pair (int_range 0 (grid - 1)) bool))
    (fun plan ->
      let sim = Sim.create () in
      let fired = ref [] in
      let note i = fired := i :: !fired in
      let handles =
        List.mapi
          (fun i (at, use_int) ->
            if use_int then Sim.schedule_i sim ~at:(float_of_int at) note i
            else Sim.schedule sim ~at:(float_of_int at) (fun () -> note i))
          plan
      in
      List.iter
        (fun h ->
          if not (Sim.is_pending sim h) then
            QCheck.Test.fail_report "freshly scheduled handle not pending")
        handles;
      Sim.run sim;
      let expected =
        List.mapi (fun i (at, _) -> (i, at)) plan
        |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
        |> List.map fst
      in
      let got = List.rev !fired in
      if got <> expected then
        QCheck.Test.fail_reportf "fired [%s] <> model [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected));
      if List.exists (Sim.is_pending sim) handles then
        QCheck.Test.fail_report "handle still pending after firing";
      true)

let test_sim_schedule_i_cancel () =
  let sim = Sim.create () in
  let hits = ref [] in
  let note i = hits := i :: !hits in
  let h1 = Sim.schedule_i sim ~at:1.0 note 10 in
  let _h2 = Sim.schedule_i sim ~at:2.0 note 20 in
  let h3 = Sim.schedule_after_i sim ~delay:3.0 note 30 in
  Sim.cancel sim h1;
  Alcotest.(check bool) "cancelled not pending" false (Sim.is_pending sim h1);
  Alcotest.(check bool) "others pending" true (Sim.is_pending sim h3);
  Sim.run sim;
  Alcotest.(check (list int)) "only uncancelled fire, with their args"
    [ 20; 30 ] (List.rev !hits);
  (* min_int is the free-slot sentinel and must be rejected up front. *)
  Alcotest.check_raises "min_int arg rejected"
    (Invalid_argument "Sim.schedule_i: reserved argument")
    (fun () -> ignore (Sim.schedule_i sim ~at:9.0 note min_int))

(* [every] ticks at now + period, now + 2·period, … through [until]
   inclusive, as ordinary calendar events interleaved with the rest. *)
let test_sim_every () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:0.75 (fun () -> log := "event" :: !log));
  Sim.every sim ~period:0.5 ~until:2.0 (fun () ->
      log := Printf.sprintf "tick %g" (Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list string))
    "ticks through until, interleaved"
    [ "tick 0.5"; "event"; "tick 1"; "tick 1.5"; "tick 2" ]
    (List.rev !log);
  Alcotest.check_raises "non-positive period"
    (Invalid_argument "Sim.every: period must be positive") (fun () ->
      Sim.every sim ~period:0.0 ~until:1.0 ignore)

let () =
  Alcotest.run "taq_engine"
    [
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "large random" `Quick test_heap_large_random;
          Alcotest.test_case "clear keeps capacity" `Quick
            test_heap_clear_keeps_capacity;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
          Alcotest.test_case "schedule after" `Quick test_sim_schedule_after;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "cancel from event" `Quick test_sim_cancel_from_event;
          Alcotest.test_case "run until" `Quick test_sim_run_until;
          Alcotest.test_case "until inclusive" `Quick test_sim_until_boundary_inclusive;
          Alcotest.test_case "step" `Quick test_sim_step;
          Alcotest.test_case "cascading" `Quick test_sim_cascading_events;
          Alcotest.test_case "same-time from event" `Quick
            test_sim_same_time_event_scheduled_during_event;
          Alcotest.test_case "stale handle inert" `Quick
            test_sim_stale_handle_inert;
          Alcotest.test_case "stale after fire" `Quick
            test_sim_handle_stale_after_fire;
          Alcotest.test_case "schedule_i cancel + args" `Quick
            test_sim_schedule_i_cancel;
          Alcotest.test_case "every" `Quick test_sim_every;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_engine"))
          [
            prop_heap_drains_sorted;
            prop_cancelled_events_never_fire;
            prop_heap_matches_reference;
            prop_pooled_scheduler_matches_model;
            prop_schedule_i_matches_schedule;
          ] );
    ]
