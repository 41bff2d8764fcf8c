(* Tests for the TAQ core: the approximate flow-state machine, epoch
   estimation, flow tracking, the multi-class queues and scheduler,
   admission control, and the assembled discipline — ending with the
   headline integration property: TAQ improves short-term fairness
   over droptail under small-packet-regime contention. *)

open Taq_core
module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Disc = Taq_net.Disc
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Tcp_sender = Taq_tcp.Tcp_sender
module Check = Taq_check.Check
module Obs = Taq_obs.Obs

let alloc = Packet.alloc ()

let mk_data ?(flow = 1) ?(pool = -1) ?(seq = 0) ?(size = 500) () =
  Packet.make ~alloc ~flow ~pool ~kind:Packet.Data ~seq ~size ~sent_at:0.0 ()

let mk_syn ?(flow = 1) ?(pool = -1) () =
  Packet.make ~alloc ~flow ~pool ~kind:Packet.Syn ~seq:0 ~size:40 ~sent_at:0.0 ()

(* --- Flow_state ----------------------------------------------------------- *)

let obs ?(new_pkts = 0) ?(retx_pkts = 0) ?(drops = 0) ?(prev_new_pkts = 0)
    ?(outstanding_drops = 0) () =
  {
    Flow_state.new_pkts;
    retx_pkts;
    drops;
    prev_new_pkts;
    outstanding_drops;
  }

let check_state = Alcotest.testable (Fmt.of_to_string Flow_state.to_string) ( = )

let test_fs_slow_start_growth () =
  (* Exponential growth keeps a flow in slow start. *)
  let s = Flow_state.step Flow_state.Slow_start (obs ~new_pkts:4 ~prev_new_pkts:2 ()) in
  Alcotest.check check_state "still slow start" Flow_state.Slow_start s

let test_fs_slow_start_to_normal () =
  let s = Flow_state.step Flow_state.Slow_start (obs ~new_pkts:4 ~prev_new_pkts:4 ()) in
  Alcotest.check check_state "linear growth -> normal" Flow_state.Normal s

let test_fs_drop_triggers_recovery () =
  let s = Flow_state.step Flow_state.Normal (obs ~new_pkts:3 ~drops:1 ~prev_new_pkts:3 ()) in
  Alcotest.check check_state "drop -> loss recovery" Flow_state.Loss_recovery s

let test_fs_silence_after_drop_is_timeout () =
  let s =
    Flow_state.step Flow_state.Normal (obs ~drops:1 ~prev_new_pkts:3 ())
  in
  Alcotest.check check_state "silent + drops -> timeout silence"
    Flow_state.Timeout_silence s

let test_fs_silence_without_drop_is_idle () =
  let s = Flow_state.step Flow_state.Normal (obs ~prev_new_pkts:3 ()) in
  Alcotest.check check_state "silent, no drops -> idle (dummy state)"
    Flow_state.Idle s

let test_fs_repeated_silence_extends () =
  let s = Flow_state.step Flow_state.Timeout_silence (obs ()) in
  Alcotest.check check_state "second silent epoch -> extended"
    Flow_state.Extended_silence s;
  let s = Flow_state.step Flow_state.Extended_silence (obs ()) in
  Alcotest.check check_state "stays extended" Flow_state.Extended_silence s

let test_fs_retx_after_silence_is_timeout_recovery () =
  let s = Flow_state.step Flow_state.Timeout_silence (obs ~retx_pkts:1 ()) in
  Alcotest.check check_state "retx -> timeout recovery"
    Flow_state.Timeout_recovery s

let test_fs_timeout_recovery_to_slow_start () =
  (* Figure 7: successful timeout recovery re-enters slow start. *)
  let s =
    Flow_state.step Flow_state.Timeout_recovery (obs ~new_pkts:2 ())
  in
  Alcotest.check check_state "recovered -> slow start" Flow_state.Slow_start s

let test_fs_loss_recovery_completes_to_normal () =
  let s =
    Flow_state.step Flow_state.Loss_recovery
      (obs ~new_pkts:2 ~outstanding_drops:0 ())
  in
  Alcotest.check check_state "recovered -> normal" Flow_state.Normal s

let test_fs_lost_recovery_retx_means_repetitive () =
  (* A timeout-recovery epoch followed by silence = the recovery
     retransmission was itself lost: repetitive timeout. *)
  let s = Flow_state.step Flow_state.Timeout_recovery (obs ()) in
  Alcotest.check check_state "recovery lost -> extended silence"
    Flow_state.Extended_silence s

let test_fs_total_over_all_states () =
  (* The step function must be total: no exception on any state and a
     representative set of observations. *)
  let observations =
    [
      obs ();
      obs ~new_pkts:1 ();
      obs ~retx_pkts:1 ();
      obs ~new_pkts:3 ~retx_pkts:2 ~drops:1 ~prev_new_pkts:1 ~outstanding_drops:2 ();
      obs ~drops:5 ();
    ]
  in
  List.iter
    (fun st -> List.iter (fun o -> ignore (Flow_state.step st o)) observations)
    Flow_state.all

(* --- Epoch_estimator -------------------------------------------------------- *)

let test_epoch_default_before_evidence () =
  let e = Epoch_estimator.create Taq_config.Estimated in
  Alcotest.(check (float 1e-9)) "default" 0.2 (Epoch_estimator.epoch e)

let test_epoch_oracle () =
  let e = Epoch_estimator.create (Taq_config.Oracle 0.35) in
  Epoch_estimator.note_packet e ~time:1.0;
  Alcotest.(check (float 1e-9)) "oracle fixed" 0.35 (Epoch_estimator.epoch e)

let test_epoch_syn_data_gap () =
  let e = Epoch_estimator.create Taq_config.Estimated in
  Epoch_estimator.note_syn e ~time:0.0;
  Epoch_estimator.note_packet e ~time:0.3;
  Alcotest.(check (float 1e-9)) "initial from syn gap" 0.3 (Epoch_estimator.epoch e)

let test_epoch_burst_detection () =
  let e = Epoch_estimator.create Taq_config.Estimated in
  Epoch_estimator.note_syn e ~time:0.0;
  (* Bursts every 0.4 s: the estimate converges toward 0.4. *)
  let t = ref 0.4 in
  for _ = 1 to 30 do
    Epoch_estimator.note_packet e ~time:!t;
    Epoch_estimator.note_packet e ~time:(!t +. 0.01);
    Epoch_estimator.note_packet e ~time:(!t +. 0.02);
    t := !t +. 0.4
  done;
  let est = Epoch_estimator.epoch e in
  Alcotest.(check bool)
    (Printf.sprintf "converges near 0.4 (got %.3f)" est)
    true
    (est > 0.3 && est < 0.5)

let test_epoch_clamped () =
  let e = Epoch_estimator.create Taq_config.Estimated in
  Epoch_estimator.note_syn e ~time:0.0;
  Epoch_estimator.note_packet e ~time:100.0;
  Alcotest.(check (float 1e-9)) "clamped at max" 1.0 (Epoch_estimator.epoch e);
  let e = Epoch_estimator.create Taq_config.Estimated in
  Epoch_estimator.note_syn e ~time:0.0;
  Epoch_estimator.note_packet e ~time:0.001;
  Alcotest.(check (float 1e-9)) "clamped at min" 0.02 (Epoch_estimator.epoch e)

(* --- Flow_tracker ------------------------------------------------------------ *)

let tracker_fixture ?(epoch = 0.2) () =
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Oracle epoch;
    }
  in
  let t =
    Flow_tracker.create ~obs:Obs.off ~config ~now:(fun () -> !clock) ()
  in
  (t, clock)

let test_tracker_classifies_new_vs_retx () =
  let t, _clock = tracker_fixture () in
  Alcotest.(check bool) "first is new" true
    (Flow_tracker.observe_data t (mk_data ~seq:0 ()) = Flow_tracker.New_data);
  Alcotest.(check bool) "higher is new" true
    (Flow_tracker.observe_data t (mk_data ~seq:1 ()) = Flow_tracker.New_data);
  Alcotest.(check bool) "repeat is retx" true
    (Flow_tracker.observe_data t (mk_data ~seq:0 ())
    = Flow_tracker.Retransmission)

let test_tracker_ignores_sender_retx_flag () =
  (* A middlebox cannot see the sender's retx flag; inference is by
     sequence only. A "retx-flagged" packet with a fresh sequence must
     classify as new data. *)
  let t, _clock = tracker_fixture () in
  let p =
    Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq:0 ~size:500 ~retx:true
      ~sent_at:0.0 ()
  in
  Alcotest.(check bool) "flag ignored" true
    (Flow_tracker.observe_data t p = Flow_tracker.New_data)

let test_tracker_silence_epochs_accumulate () =
  let t, clock = tracker_fixture ~epoch:0.2 () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  (* Mark a drop so the silence reads as timeout, then let 5 epochs
     pass silently. *)
  Flow_tracker.observe_drop t (mk_data ~seq:1 ());
  clock := 1.1;
  Flow_tracker.tick t;
  let silence = Flow_tracker.silence_epochs t ~flow:1 in
  Alcotest.(check bool)
    (Printf.sprintf "several silent epochs (%d)" silence)
    true (silence >= 3);
  Alcotest.(check bool) "state is a silence state" true
    (Flow_state.is_silent (Flow_tracker.state t ~flow:1))

let test_tracker_overpenalized () =
  let t, _clock = tracker_fixture () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check bool) "not yet" false (Flow_tracker.is_overpenalized t ~flow:1);
  for seq = 1 to 3 do
    Flow_tracker.observe_drop t (mk_data ~seq ())
  done;
  Alcotest.(check bool) "after 3 drops" true
    (Flow_tracker.is_overpenalized t ~flow:1)

let test_tracker_new_flow_ages_out () =
  let t, clock = tracker_fixture ~epoch:0.1 () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check bool) "young flow" true (Flow_tracker.is_new_flow t ~flow:1);
  (* Keep it active across many epochs. *)
  for i = 1 to 20 do
    clock := 0.1 *. float_of_int i;
    ignore (Flow_tracker.observe_data t (mk_data ~seq:i ()))
  done;
  Alcotest.(check bool) "aged out" false (Flow_tracker.is_new_flow t ~flow:1)

let test_tracker_retx_consumes_outstanding_drop () =
  let t, _clock = tracker_fixture () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  ignore (Flow_tracker.observe_data t (mk_data ~seq:1 ()));
  Flow_tracker.observe_drop t (mk_data ~seq:2 ());
  Alcotest.(check int) "one outstanding" 1
    (Flow_tracker.outstanding_drops t ~flow:1);
  ignore (Flow_tracker.observe_data t (mk_data ~seq:1 ()));
  Alcotest.(check int) "consumed by retx" 0
    (Flow_tracker.outstanding_drops t ~flow:1)

let test_tracker_expires_idle_flows () =
  let t, clock = tracker_fixture () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check int) "tracked" 1 (Flow_tracker.tracked_flow_count t);
  clock := 500.0;
  Flow_tracker.tick t;
  Alcotest.(check int) "expired" 0 (Flow_tracker.tracked_flow_count t)

let test_tracker_rate_and_fair_share () =
  let t, clock = tracker_fixture ~epoch:0.1 () in
  (* Flow 1 sends 10 packets per epoch, flow 2 sends 1. *)
  let seq1 = ref 0 and seq2 = ref 0 in
  for i = 0 to 49 do
    clock := 0.1 *. float_of_int i;
    for _ = 1 to 10 do
      incr seq1;
      ignore (Flow_tracker.observe_data t (mk_data ~flow:1 ~seq:!seq1 ()))
    done;
    incr seq2;
    ignore (Flow_tracker.observe_data t (mk_data ~flow:2 ~seq:!seq2 ()))
  done;
  let r1 = Flow_tracker.rate_bps t ~flow:1 and r2 = Flow_tracker.rate_bps t ~flow:2 in
  Alcotest.(check bool) "rates ordered" true (r1 > r2);
  (* Fair share of 1 Mbps over 2 active flows = 500 Kbps: flow 1 at
     ~400 Kbps stays below; hog detection needs the real link. Flow 2 is
     certainly below. *)
  Alcotest.(check bool) "flow 2 below fair share" true
    (Flow_tracker.below_fair_share t ~flow:2);
  Alcotest.(check int) "two active" 2 (Flow_tracker.active_flow_count t)


let test_tracker_shrinking_epoch_expires_earlier () =
  (* An epoch estimate that shrinks between packets pulls the flow's
     expiry earlier than the deadline armed at the previous packet: the
     SYN->data gap sets a 1 s epoch (window 5 s from t=1, deadline
     t=6), then a burst spacing of 0.55 s revises it to 0.8875 s
     (window 4.4375 s from t=1.55, so expiry before t=5.99), which the
     second packet must pull forward. *)
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Estimated;
    }
  in
  let now () = !clock in
  let t = Flow_tracker.create ~obs:Obs.off ~config ~now ()
  and r = Flow_tracker_ref.create ~obs:Obs.off ~config ~now () in
  Flow_tracker.observe_syn t ~flow:1;
  Flow_tracker_ref.observe_syn r ~flow:1;
  let data ~seq at =
    clock := at;
    let p = mk_data ~seq () in
    ignore (Flow_tracker.observe_data t p);
    ignore (Flow_tracker_ref.observe_data r p)
  in
  data ~seq:0 1.0;
  clock := 1.2;
  Alcotest.(check int) "active at t=1.2" 1 (Flow_tracker.active_flow_count t);
  data ~seq:1 1.55;
  Alcotest.(check (float 1e-12)) "epoch revised down" 0.8875
    (Flow_tracker.epoch_len t ~flow:1);
  clock := 5.99;
  Alcotest.(check int) "reference: idle by t=5.99" 0
    (Flow_tracker_ref.active_flow_count r);
  Alcotest.(check int) "tracker agrees" 0 (Flow_tracker.active_flow_count t)

(* --- Fair share ---------------------------------------------------------------- *)

let test_fair_share_basic () =
  let t, _clock = tracker_fixture () in
  Alcotest.(check (float 1e-9)) "zero flows get everything" 1e6
    (Flow_tracker.fair_share_bps t);
  for flow = 1 to 4 do
    Flow_tracker.observe_syn t ~flow
  done;
  Alcotest.(check (float 1e-9)) "equal split" 250_000.0
    (Flow_tracker.fair_share_bps t)

(* --- Taq_queues ----------------------------------------------------------------- *)

let queues_fixture () =
  let clock = ref 0.0 in
  let config = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
  (Taq_queues.create ~config ~now:(fun () -> !clock), clock)

let test_queues_recovery_priority_order () =
  let q, clock = queues_fixture () in
  clock := 10.0;  (* let the token bucket fill *)
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1.0 (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:5.0 (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:3.0 (mk_data ~flow:3 ());
  let order = List.init 3 (fun _ ->
      match Taq_queues.dequeue q with
      | Some p -> p.Packet.flow
      | None -> -1)
  in
  Alcotest.(check (list int)) "longest silence first" [ 2; 3; 1 ] order

let test_queues_recovery_beats_everything () =
  let q, clock = queues_fixture () in
  clock := 10.0;
  Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Above_fair_share (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1.0 (mk_data ~flow:3 ());
  match Taq_queues.dequeue q with
  | Some p -> Alcotest.(check int) "recovery first" 3 p.Packet.flow
  | None -> Alcotest.fail "empty"

let test_queues_above_served_last () =
  let q, clock = queues_fixture () in
  clock := 10.0;
  Taq_queues.enqueue q Taq_queues.Above_fair_share (mk_data ~flow:9 ());
  Taq_queues.enqueue q Taq_queues.New_flow (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Over_penalized (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ~flow:3 ());
  let flows = List.init 4 (fun _ ->
      match Taq_queues.dequeue q with
      | Some p -> p.Packet.flow
      | None -> -1)
  in
  Alcotest.(check int) "above-fair-share drains last" 9 (List.nth flows 3)

let test_queues_token_bucket_limits_recovery () =
  (* With empty tokens and a competing level-2 queue, recovery defers. *)
  let q, clock = queues_fixture () in
  clock := 10.0;
  (* Drain the bucket (burst = max(3000, 0.25 * rate) = 7812 bytes at
     1 Mbps / share 0.25) with a first big recovery packet... *)
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1.0 (mk_data ~flow:1 ~size:6000 ());
  ignore (Taq_queues.dequeue q);
  (* ...then immediately offer recovery vs below-fair-share. *)
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1.0 (mk_data ~flow:2 ~size:6000 ());
  Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ~flow:3 ());
  (match Taq_queues.dequeue q with
  | Some p -> Alcotest.(check int) "level 2 served while bucket empty" 3 p.Packet.flow
  | None -> Alcotest.fail "empty");
  (* Work conservation: recovery still drains when it is all there is. *)
  match Taq_queues.dequeue q with
  | Some p -> Alcotest.(check int) "work conserving" 2 p.Packet.flow
  | None -> Alcotest.fail "empty"

let test_queues_victim_selection () =
  let q, clock = queues_fixture () in
  clock := 10.0;
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1.0 (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Above_fair_share (mk_data ~flow:3 ());
  Alcotest.(check bool) "above is victim" true
    (Taq_queues.select_victim q = Some Taq_queues.Above_fair_share);
  ignore (Taq_queues.drop_from q Taq_queues.Above_fair_share);
  Alcotest.(check bool) "then level 2" true
    (Taq_queues.select_victim q = Some Taq_queues.Below_fair_share);
  ignore (Taq_queues.drop_from q Taq_queues.Below_fair_share);
  Alcotest.(check bool) "recovery only as last resort" true
    (Taq_queues.select_victim q = Some Taq_queues.Recovery)

let test_queues_accounting () =
  let q, _clock = queues_fixture () in
  Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ~size:100 ());
  Taq_queues.enqueue q Taq_queues.Above_fair_share (mk_data ~size:200 ());
  Alcotest.(check int) "packets" 2 (Taq_queues.total_packets q);
  Alcotest.(check int) "bytes" 300 (Taq_queues.total_bytes q);
  ignore (Taq_queues.dequeue q);
  ignore (Taq_queues.dequeue q);
  Alcotest.(check int) "drained" 0 (Taq_queues.total_packets q);
  Alcotest.(check int) "no bytes" 0 (Taq_queues.total_bytes q)

(* --- Admission ------------------------------------------------------------------- *)

let admission_fixture () =
  let clock = ref 0.0 in
  let a =
    Admission.create ~pthresh:0.1 ~now:(fun () -> !clock)
  in
  (a, clock)

let test_admission_low_loss_admits () =
  let a, _clock = admission_fixture () in
  for _ = 1 to 100 do
    Admission.note_arrival a
  done;
  Alcotest.(check bool) "admitted" true (Admission.on_syn a ~key:1 = Admission.Admitted)

let test_admission_high_loss_rejects_new () =
  let a, _clock = admission_fixture () in
  (* Sustained 50% loss pushes the EWMA far above pthresh. *)
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  Alcotest.(check bool) "loss rate high" true (Admission.loss_rate a > 0.1);
  Alcotest.(check bool) "rejected" true (Admission.on_syn a ~key:1 = Admission.Rejected)

let test_admission_admitted_pool_stays () =
  let a, _clock = admission_fixture () in
  Alcotest.(check bool) "first admit" true
    (Admission.on_syn a ~key:7 = Admission.Admitted);
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  (* Pool 7 was admitted before the congestion: its later flows pass. *)
  Alcotest.(check bool) "pool keeps its admission" true
    (Admission.on_syn a ~key:7 = Admission.Admitted)

let test_admission_t_wait_guarantee () =
  let a, clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  Alcotest.(check bool) "rejected initially" true
    (Admission.on_syn a ~key:9 = Admission.Rejected);
  clock := !clock +. Admission.t_wait +. 0.1;
  Alcotest.(check bool) "admitted after t_wait" true
    (Admission.on_syn a ~key:9 = Admission.Admitted)

let test_admission_pool_expiry () =
  let a, clock = admission_fixture () in
  ignore (Admission.on_syn a ~key:3);
  Alcotest.(check int) "one admitted" 1 (Admission.admitted_count a);
  clock := 1000.0;
  Admission.expire a;
  Alcotest.(check int) "expired" 0 (Admission.admitted_count a)


let test_admission_feedback_queue_positions () =
  let a, _clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  Alcotest.(check bool) "no feedback before rejection" true
    (Admission.feedback a ~key:1 = None);
  ignore (Admission.on_syn a ~key:1);
  ignore (Admission.on_syn a ~key:2);
  (match Admission.feedback a ~key:1 with
  | Some f ->
      Alcotest.(check int) "first in line" 1 f.Admission.position;
      Alcotest.(check bool) "bounded wait" true
        (f.Admission.expected_wait
        <= Admission.t_wait +. 1e-9)
  | None -> Alcotest.fail "expected feedback for pool 1");
  (match Admission.feedback a ~key:2 with
  | Some f ->
      Alcotest.(check int) "second in line" 2 f.Admission.position;
      Alcotest.(check bool) "waits one more slot" true
        (f.Admission.expected_wait
        > Admission.t_wait -. 1e-9)
  | None -> Alcotest.fail "expected feedback for pool 2")

let test_admission_feedback_cleared_on_admit () =
  let a, clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  ignore (Admission.on_syn a ~key:5);
  clock := !clock +. Admission.t_wait +. 0.1;
  Alcotest.(check bool) "admitted on retry" true
    (Admission.on_syn a ~key:5 = Admission.Admitted);
  Alcotest.(check bool) "no feedback once admitted" true
    (Admission.feedback a ~key:5 = None)

let test_admission_waiting_expiry () =
  (* A client that never retries its SYN must not occupy the waiting
     table (and block the Twait FIFO head) forever. *)
  let a, clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  ignore (Admission.on_syn a ~key:1);
  ignore (Admission.on_syn a ~key:2);
  Alcotest.(check int) "two waiting" 2 (Admission.waiting_count a);
  clock := !clock +. Admission.pool_expiry +. 1.0;
  Admission.expire a;
  Alcotest.(check int) "waiting pruned" 0 (Admission.waiting_count a);
  Alcotest.(check bool) "Twait FIFO pruned too" true
    (Admission.feedback a ~key:1 = None)

let test_admission_shed_waiting () =
  let a, _clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  for key = 1 to 5 do
    ignore (Admission.on_syn a ~key)
  done;
  Alcotest.(check int) "five waiting" 5 (Admission.waiting_count a);
  Admission.shed_waiting a;
  Alcotest.(check int) "all shed" 0 (Admission.waiting_count a);
  Alcotest.(check bool) "FIFO empty" true (Admission.feedback a ~key:3 = None)

(* --- Flow_tracker cap --------------------------------------------------------------- *)

let capped_tracker_fixture ?(obs = Obs.off) ~cap () =
  let clock = ref 0.0 in
  let config =
    Taq_config.with_guard ~max_tracked_flows:cap
      {
        (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
        Taq_config.epoch_source = Taq_config.Oracle 0.2;
      }
  in
  let t = Flow_tracker.create ~obs ~config ~now:(fun () -> !clock) () in
  (t, clock)

let test_tracker_cap_never_exceeded () =
  let t, clock = capped_tracker_fixture ~cap:4 () in
  for flow = 1 to 12 do
    clock := !clock +. 0.01;
    ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ()));
    Alcotest.(check bool) "tracked <= cap" true
      (Flow_tracker.tracked_flow_count t <= 4)
  done;
  Alcotest.(check int) "peak is the cap" 4 (Flow_tracker.peak_tracked t);
  Alcotest.(check int) "evictions counted" 8 (Flow_tracker.cap_evictions t)

let test_tracker_cap_evicts_lru () =
  let t, clock = capped_tracker_fixture ~cap:3 () in
  (* Flows 1..3 fill the table; flow 1 is then refreshed, so flow 2 is
     the least recently seen when flow 4 arrives. *)
  List.iter
    (fun flow ->
      clock := !clock +. 0.1;
      ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ())))
    [ 1; 2; 3 ];
  clock := !clock +. 0.1;
  ignore (Flow_tracker.observe_data t (mk_data ~flow:1 ~seq:1 ()));
  clock := !clock +. 0.1;
  ignore (Flow_tracker.observe_data t (mk_data ~flow:4 ~seq:0 ()));
  Alcotest.(check int) "still at cap" 3 (Flow_tracker.tracked_flow_count t);
  (* Flow 2's state is gone: its next packet classes as a brand-new
     flow (seq 0 already seen would otherwise read as a repeat). *)
  Alcotest.(check bool) "victim was the LRU flow" true
    (Flow_tracker.observe_data t (mk_data ~flow:2 ~seq:0 ())
    = Flow_tracker.New_data)

let test_tracker_counts_into_given_obs () =
  let obs = Obs.create () in
  let t, clock = capped_tracker_fixture ~obs ~cap:4 () in
  for flow = 1 to 12 do
    clock := !clock +. 0.01;
    ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ()))
  done;
  let snap = Obs.snapshot obs in
  Alcotest.(check int) "flows created" 12
    (Obs.counter_value snap "tracker.flows_created");
  Alcotest.(check int) "cap evictions" (Flow_tracker.cap_evictions t)
    (Obs.counter_value snap "tracker.cap_evictions")

(* --- Overload guard ----------------------------------------------------------------- *)

(* The guard's constants: trip_after 0.25 s, clear_after 1 s,
   min_dwell 1 s, recovery_dwell 1 s, waiting_high 64. *)
let guard_fixture ?(check = Check.off) ?(obs = Obs.off) ?(cap = 8) () =
  let clock = ref 0.0 in
  let g = Overload.create ~check ~obs ~cap ~now:(fun () -> !clock) () in
  (g, clock)

(* Step the fake clock in [dt] increments, feeding [evictions] fresh
   cap evictions per sample when [pressure] is on. *)
let drive g clock ~pressure ~until ~dt =
  let evictions = ref 0 in
  let base = !clock in
  while !clock -. base < until -. 1e-9 do
    clock := !clock +. dt;
    if pressure then incr evictions;
    Overload.sample g ~tracked:1
      ~cap_evictions:(if pressure then !evictions else 0)
      ~waiting:0
  done

let test_guard_trips_only_on_sustained_pressure () =
  let g, clock = guard_fixture () in
  (* A single pressured sample is not sustained: no trip. *)
  Overload.sample g ~tracked:1 ~cap_evictions:1 ~waiting:0;
  drive g clock ~pressure:false ~until:2.0 ~dt:0.05;
  Alcotest.(check bool) "blip ignored" true (Overload.mode g = Overload.Normal);
  (* Sustained churn trips it. *)
  drive g clock ~pressure:true ~until:1.0 ~dt:0.05;
  Alcotest.(check bool) "tripped" true (Overload.mode g = Overload.Degraded);
  Alcotest.(check int) "entered once" 1 (Overload.degraded_entered g)

let test_guard_full_arc_and_dwells () =
  let g, clock = guard_fixture () in
  drive g clock ~pressure:true ~until:1.5 ~dt:0.05;
  Alcotest.(check bool) "degraded" true (Overload.mode g = Overload.Degraded);
  (* Calm must persist for clear_after AND the mode dwell must reach
     min_dwell before the exit begins. *)
  drive g clock ~pressure:false ~until:0.3 ~dt:0.05;
  Alcotest.(check bool) "still degraded inside dwell" true
    (Overload.mode g = Overload.Degraded);
  (* Trip happened at ~t=1.05 (dwell floor) and calm began at t=1.55,
     so the exit opens at ~t=2.55; stop at ~t=2.8, inside the recovery
     dwell. *)
  drive g clock ~pressure:false ~until:1.0 ~dt:0.05;
  Alcotest.(check bool) "recovering" true
    (Overload.mode g = Overload.Recovering);
  drive g clock ~pressure:false ~until:1.5 ~dt:0.05;
  Alcotest.(check bool) "normal again" true (Overload.mode g = Overload.Normal);
  Alcotest.(check int) "one full cycle" 1 (Overload.degraded_exited g)

let test_guard_recovering_retrips () =
  let g, clock = guard_fixture () in
  drive g clock ~pressure:true ~until:1.5 ~dt:0.05;
  (* Calm long enough to reach Recovering (~t=2.55) but not long
     enough to complete the recovery dwell. *)
  drive g clock ~pressure:false ~until:1.3 ~dt:0.05;
  Alcotest.(check bool) "recovering" true
    (Overload.mode g = Overload.Recovering);
  (* Pressure during recovery sends it straight back once the dwell
     floor is met — no need to re-sustain trip_after. *)
  drive g clock ~pressure:true ~until:1.2 ~dt:0.05;
  Alcotest.(check bool) "re-degraded" true
    (Overload.mode g = Overload.Degraded);
  Alcotest.(check int) "entered twice" 2 (Overload.degraded_entered g)

let test_guard_waiting_backlog_is_pressure () =
  let g, clock = guard_fixture () in
  let backlog waiting ~until =
    let base = !clock in
    while !clock -. base < until do
      clock := !clock +. 0.05;
      Overload.sample g ~tracked:1 ~cap_evictions:0 ~waiting
    done
  in
  backlog 63 ~until:1.5;
  Alcotest.(check bool) "63 waiting pools are calm" true
    (Overload.mode g = Overload.Normal);
  backlog 64 ~until:0.5;
  Alcotest.(check bool) "64 waiting pools trip the guard" true
    (Overload.mode g = Overload.Degraded)

let test_guard_reports_to_given_check_and_obs () =
  let check = Check.create ~mode:Check.Count ~groups:[ Check.Guard ] ()
  and obs = Obs.create () in
  let g, clock = guard_fixture ~check ~obs () in
  Overload.sample g ~tracked:9 ~cap_evictions:0 ~waiting:0;
  Alcotest.(check int) "cap overrun reported to the given checker" 1
    (Check.violations check Check.Guard);
  drive g clock ~pressure:true ~until:1.5 ~dt:0.05;
  Alcotest.(check bool) "degraded" true (Overload.mode g = Overload.Degraded);
  Alcotest.(check int) "trip counted in the given obs" 1
    (Obs.counter_value (Obs.snapshot obs) "guard.degraded_entered")

let test_config_guard_validation () =
  let base = Taq_config.default ~capacity_pkts:10 ~capacity_bps:1e6 in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "cap < 1 rejected" true
    (raises (fun () -> Taq_config.with_guard ~max_tracked_flows:0 base));
  let ok = Taq_config.with_guard ~max_tracked_flows:16 base in
  Alcotest.(check int) "cap installed" 16 ok.Taq_config.max_tracked_flows;
  Alcotest.(check bool) "guard installed" true ok.Taq_config.guard

(* --- Taq_disc (unit) ---------------------------------------------------------------- *)

let disc_fixture ?(capacity_pkts = 10) ?(admission = false) () =
  let sim = Sim.create () in
  let base =
    if admission then Taq_config.with_admission ~capacity_pkts ~capacity_bps:1e6
    else Taq_config.default ~capacity_pkts ~capacity_bps:1e6
  in
  let config = { base with Taq_config.epoch_source = Taq_config.Oracle 0.2 } in
  let t = Taq_disc.create ~sim ~config () in
  (t, sim)

let test_disc_accepts_and_serves () =
  let t, _sim = disc_fixture () in
  let d = Taq_disc.disc t in
  Alcotest.(check int) "accepted" 0 (List.length (d.Disc.enqueue (mk_data ~seq:0 ())));
  match d.Disc.dequeue () with
  | Some p -> Alcotest.(check int) "served" 0 p.Packet.seq
  | None -> Alcotest.fail "should serve the packet"

let test_disc_pushout_prefers_low_priority () =
  let t, sim = disc_fixture ~capacity_pkts:4 () in
  let d = Taq_disc.disc t in
  (* Age flow 99 out of the new-flow phase and make it a hog so its
     packets class as above-fair-share; keep its packets filling the
     buffer; then a retransmission from flow 1 must push one out. *)
  ignore sim;
  let seq = ref 0 in
  for _ = 1 to 200 do
    incr seq;
    ignore (d.Disc.enqueue (mk_data ~flow:99 ~seq:!seq ()));
    if Taq_queues.total_packets (Taq_disc.queues t) > 3 then
      ignore (d.Disc.dequeue ())
  done;
  (* Flow 1: seen once, then retransmits (seq repeat). *)
  ignore (d.Disc.enqueue (mk_data ~flow:1 ~seq:5 ()));
  (* Fill to capacity with hog packets. *)
  while Taq_queues.total_packets (Taq_disc.queues t) < 4 do
    incr seq;
    ignore (d.Disc.enqueue (mk_data ~flow:99 ~seq:!seq ()))
  done;
  let arrival = mk_data ~flow:1 ~seq:5 () in
  let drops = d.Disc.enqueue arrival in
  (match drops with
  | [ victim ] ->
      (* The retransmission itself must survive; the victim is a
         queued lower-priority packet (possibly of the same flow). *)
      Alcotest.(check bool) "retransmission not the victim" true
        (victim.Packet.uid <> arrival.Packet.uid)
  | _ -> Alcotest.failf "expected one victim, got %d" (List.length drops));
  Alcotest.(check int) "retransmission queued in recovery" 1
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.Recovery);
  Alcotest.(check int) "buffer still full" 4
    (Taq_queues.total_packets (Taq_disc.queues t))

let test_disc_syn_rejected_under_admission_pressure () =
  let t, _sim = disc_fixture ~capacity_pkts:10 ~admission:true () in
  let d = Taq_disc.disc t in
  (match Taq_disc.admission t with
  | Some a ->
      for _ = 1 to 2000 do
        Admission.note_arrival a;
        Admission.note_drop a
      done
  | None -> Alcotest.fail "admission expected");
  let drops = d.Disc.enqueue (mk_syn ~flow:50 ~pool:5 ()) in
  Alcotest.(check int) "syn dropped" 1 (List.length drops);
  let st = Taq_disc.stats t in
  Alcotest.(check int) "counted as admission reject" 1
    st.Taq_disc.admission_rejected

let test_disc_syn_admitted_when_clear () =
  let t, _sim = disc_fixture ~capacity_pkts:10 ~admission:true () in
  let d = Taq_disc.disc t in
  let drops = d.Disc.enqueue (mk_syn ~flow:50 ~pool:5 ()) in
  Alcotest.(check int) "syn accepted" 0 (List.length drops)

let test_disc_conservation () =
  (* enqueued = dequeued + dropped + still queued, under random load. *)
  let t, _sim = disc_fixture ~capacity_pkts:8 () in
  let d = Taq_disc.disc t in
  let prng = Taq_util.Prng.create ~seed:123 in
  let offered = ref 0 and drops = ref 0 and served = ref 0 in
  let seqs = Array.make 10 0 in
  for _ = 1 to 2000 do
    if Taq_util.Prng.bool prng then begin
      let flow = Taq_util.Prng.int prng 10 in
      let retx = Taq_util.Prng.bernoulli prng ~p:0.2 in
      let seq =
        if retx && seqs.(flow) > 0 then seqs.(flow) - 1
        else begin
          seqs.(flow) <- seqs.(flow) + 1;
          seqs.(flow) - 1
        end
      in
      incr offered;
      drops := !drops + List.length (d.Disc.enqueue (mk_data ~flow ~seq ()))
    end
    else
      match d.Disc.dequeue () with Some _ -> incr served | None -> ()
  done;
  Alcotest.(check int) "conservation" !offered
    (!served + !drops + d.Disc.length ())

let test_disc_degraded_bypass () =
  let sim = Sim.create () in
  let base = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
  let config =
    Taq_config.with_guard ~max_tracked_flows:8
      { base with Taq_config.epoch_source = Taq_config.Oracle 0.2 }
  in
  let t = Taq_disc.create ~sim ~config () in
  let d = Taq_disc.disc t in
  (* A churn of brand-new flows, one every 5 ms for 2 s: every arrival
     past the cap evicts an entry, so each guard sample sees fresh
     eviction churn and the guard trips. Dequeues keep the buffer
     drained so drops never muddy the picture. *)
  let flow = ref 100 in
  for i = 0 to 399 do
    ignore
      (Sim.schedule sim
         ~at:(0.005 *. float_of_int i)
         (fun () ->
           incr flow;
           ignore (d.Disc.enqueue (mk_data ~flow:!flow ~seq:0 ()));
           ignore (d.Disc.dequeue ())))
  done;
  Sim.run ~until:3.0 sim;
  (match Taq_disc.guard t with
  | None -> Alcotest.fail "guard expected on this config"
  | Some g ->
      Alcotest.(check bool) "degraded under churn" true (Overload.degraded g));
  Alcotest.(check bool) "tracker stayed bounded" true
    (Flow_tracker.peak_tracked (Taq_disc.tracker t) <= 8);
  (* While degraded, classification is bypassed: a repeat sequence
     (Recovery-class in normal mode) goes FIFO into the base class
     like everything else. *)
  ignore (d.Disc.enqueue (mk_data ~flow:42 ~seq:0 ()));
  ignore (d.Disc.enqueue (mk_data ~flow:42 ~seq:0 ()));
  Alcotest.(check int) "recovery class untouched" 0
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.Recovery);
  Alcotest.(check int) "both packets FIFO'd in the base class" 2
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.Below_fair_share)

(* The NewFlow cap is derived from the buffer: a quarter of it, at
   least 2. *)
let newflow_cap_fixture () =
  let t, _sim = disc_fixture ~capacity_pkts:10 () in
  let cap =
    Taq_config.newflow_cap (Taq_config.default ~capacity_pkts:10 ~capacity_bps:1e6)
  in
  Alcotest.(check int) "cap of a 10-packet buffer" 2 cap;
  (t, Taq_disc.disc t, cap)

let test_disc_syn_dropped_at_newflow_cap () =
  let t, d, cap = newflow_cap_fixture () in
  for flow = 1 to cap do
    Alcotest.(check int) "syn below the cap queued" 0
      (List.length (d.Disc.enqueue (mk_syn ~flow ())))
  done;
  let syn = mk_syn ~flow:(cap + 1) () in
  (match d.Disc.enqueue syn with
  | [ p ] -> Alcotest.(check int) "the arriving syn" syn.Packet.uid p.Packet.uid
  | drops -> Alcotest.failf "expected one drop, got %d" (List.length drops));
  let st = Taq_disc.stats t in
  Alcotest.(check int) "one new-flow drop" 1
    (Option.value ~default:0
       (List.assoc_opt Taq_queues.New_flow st.Taq_disc.drops_by_class));
  Alcotest.(check int) "not an admission reject" 0 st.Taq_disc.admission_rejected;
  Alcotest.(check int) "new-flow queue stays at the cap" cap
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.New_flow)

let test_disc_young_data_falls_back_at_newflow_cap () =
  let t, d, cap = newflow_cap_fixture () in
  let q = Taq_disc.queues t in
  for flow = 1 to cap do
    ignore (d.Disc.enqueue (mk_data ~flow ~seq:0 ()))
  done;
  Alcotest.(check int) "young flows' data fills the new-flow queue" cap
    (Taq_queues.class_length q Taq_queues.New_flow);
  Alcotest.(check int) "accepted" 0
    (List.length (d.Disc.enqueue (mk_data ~flow:(cap + 1) ~seq:0 ())));
  Alcotest.(check int) "new-flow queue stays at the cap" cap
    (Taq_queues.class_length q Taq_queues.New_flow);
  Alcotest.(check int) "falls back to below-fair-share" 1
    (Taq_queues.class_length q Taq_queues.Below_fair_share)

(* --- Integration: TAQ vs droptail fairness --------------------------------------- *)

let run_contention ~disc ~sim ~flows ~capacity_bps ~seconds =
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let tcp = Tcp_config.make ~use_syn:false () in
  let slicer = Taq_metrics.Slicer.create ~slice:20.0 in
  let ids = ref [] in
  for _ = 1 to flows do
    let s =
      Tcp_session.create ~net ~config:tcp ~rtt_prop:0.2 ~total_segments:max_int
        ()
    in
    let flow = Tcp_session.flow_id s in
    ids := flow :: !ids;
    Tcp_receiver.on_segment (Tcp_session.receiver s) (fun _ ->
        Taq_metrics.Slicer.record slicer ~flow ~time:(Sim.now sim) ~bytes:500);
    Tcp_session.start s
  done;
  Sim.run ~until:seconds sim;
  let flows_arr = Array.of_list !ids in
  (* Skip the first slice (startup transient). *)
  Taq_metrics.Slicer.mean_jain slicer ~flows:flows_arr ~first:1 ()

let test_taq_beats_droptail_fairness () =
  (* 60 flows over 400 Kbps, 500 B packets, 200 ms RTT: fair share is
     ~1.7 pkt/RTT — squarely in the small packet regime. TAQ must give
     markedly better 20 s Jain fairness than droptail. *)
  let capacity_bps = 400_000.0 and flows = 60 and seconds = 200.0 in
  let dt_jain =
    let sim = Sim.create () in
    let disc = Taq_queueing.Droptail.create ~capacity_pkts:20 in
    run_contention ~disc ~sim ~flows ~capacity_bps ~seconds
  in
  let taq_jain =
    let sim = Sim.create () in
    let config =
      Taq_config.default ~capacity_pkts:20 ~capacity_bps
    in
    let t = Taq_disc.create ~sim ~config () in
    run_contention ~disc:(Taq_disc.disc t) ~sim ~flows ~capacity_bps ~seconds
  in
  Alcotest.(check bool)
    (Printf.sprintf "TAQ %.3f > DT %.3f" taq_jain dt_jain)
    true
    (taq_jain > dt_jain)

let test_taq_preserves_utilization () =
  let capacity_bps = 400_000.0 in
  let sim = Sim.create () in
  let config = Taq_config.default ~capacity_pkts:20 ~capacity_bps in
  let t = Taq_disc.create ~sim ~config () in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc:(Taq_disc.disc t) () in
  let tcp = Tcp_config.make ~use_syn:false () in
  for _ = 1 to 40 do
    Tcp_session.start
      (Tcp_session.create ~net ~config:tcp ~rtt_prop:0.2
         ~total_segments:max_int ())
  done;
  Sim.run ~until:100.0 sim;
  let u = Taq_net.Link.utilization (Dumbbell.link net) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f >= 0.9" u)
    true (u >= 0.9)

let test_taq_over_lossy_path () =
  (* Section 4.4: when TAQ middleboxes are overlay nodes, the path
     beyond the middlebox loses packets TAQ cannot control. Without
     any concealment those losses reach the senders, which see them as
     ordinary drops and retransmit through TAQ; flows must still
     complete despite a 5% loss on every forward path. *)
  let sim = Sim.create () in
  let config = Taq_config.default ~capacity_pkts:30 ~capacity_bps:400_000.0 in
  let taq = Taq_disc.create ~sim ~config () in
  let net =
    Dumbbell.create ~sim ~capacity_bps:400_000.0 ~disc:(Taq_disc.disc taq) ()
  in
  let prng = Taq_util.Prng.create ~seed:99 in
  let completions = ref 0 and path_losses = ref 0 in
  let tcp = Tcp_config.make ~use_syn:false () in
  for _ = 1 to 10 do
    let session =
      Tcp_session.create ~net ~config:tcp ~rtt_prop:0.1 ~total_segments:60
        ~on_complete:(fun _ -> incr completions)
        ~unregister_on_complete:false ()
    in
    let flow = Tcp_session.flow_id session in
    let path = Taq_util.Prng.split prng in
    (* Re-register the forward path through a lossy segment. *)
    Dumbbell.unregister_flow net ~flow;
    Dumbbell.register_flow net ~flow ~rtt_prop:0.1
      ~deliver_fwd:(fun p ->
        if Taq_util.Prng.float path 1.0 < 0.05 then incr path_losses
        else Tcp_receiver.on_packet (Tcp_session.receiver session) p)
      ~deliver_rev:(fun p -> Tcp_sender.on_ack (Tcp_session.sender session) p);
    Tcp_session.start session
  done;
  Sim.run ~until:300.0 sim;
  Alcotest.(check bool) "the path lost packets" true (!path_losses > 0);
  Alcotest.(check int) "all flows complete over the lossy path" 10
    !completions

let test_taq_idle_persistent_flow_classified_idle () =
  (* A persistent connection that pauses between objects must read as
     Idle at the middlebox (Figure 7's dummy state), not as a timeout
     silence: it had no drops, it simply has nothing to send. *)
  let sim = Sim.create () in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Oracle 0.1;
    }
  in
  let taq = Taq_disc.create ~sim ~config () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc:(Taq_disc.disc taq) () in
  let session =
    Taq_workload.Persistent_session.create ~net
      ~tcp:(Tcp_config.make ~use_syn:true ()) ~pool:1 ~rtt:0.1 ~conns:1 ()
  in
  Taq_workload.Persistent_session.start session;
  Taq_workload.Persistent_session.request session ~size:10_000;
  Sim.run ~until:20.0 sim;
  Alcotest.(check int) "object served" 1
    (List.length (Taq_workload.Persistent_session.completed session));
  (* 20 s of silence on a healthy connection. Force the tracker to roll
     the silent epochs. *)
  Flow_tracker.tick (Taq_disc.tracker taq);
  let flow = List.hd (Taq_workload.Persistent_session.flow_ids session) in
  let state = Flow_tracker.state (Taq_disc.tracker taq) ~flow in
  Alcotest.check check_state "idle, not timeout silence" Flow_state.Idle state

let prop_taq_queues_conserve_packets =
  QCheck.Test.make ~name:"taq queues conserve packets under random ops"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (int_range 0 6) (int_range 1 8)))
    (fun ops ->
      let clock = ref 0.0 in
      let config = Taq_core.Taq_config.default ~capacity_pkts:100 ~capacity_bps:1e6 in
      let q = Taq_queues.create ~config ~now:(fun () -> !clock) in
      let enq = ref 0 and deq = ref 0 and dropped = ref 0 in
      List.iter
        (fun (op, flow) ->
          clock := !clock +. 0.01;
          match op with
          | 0 -> Taq_queues.enqueue q Taq_queues.Recovery ~priority:(float_of_int flow)
                   (mk_data ~flow ()); incr enq
          | 1 -> Taq_queues.enqueue q Taq_queues.New_flow (mk_data ~flow ()); incr enq
          | 2 -> Taq_queues.enqueue q Taq_queues.Over_penalized (mk_data ~flow ()); incr enq
          | 3 -> Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ~flow ()); incr enq
          | 4 -> Taq_queues.enqueue q Taq_queues.Above_fair_share (mk_data ~flow ()); incr enq
          | 5 -> (match Taq_queues.dequeue q with Some _ -> incr deq | None -> ())
          | _ -> (
              match Taq_queues.select_victim q with
              | Some cls -> (
                  match Taq_queues.drop_from q cls with
                  | Some _ -> incr dropped
                  | None -> ())
              | None -> ()))
        ops;
      !enq = !deq + !dropped + Taq_queues.total_packets q)

let prop_taq_queue_class_lengths_sum =
  QCheck.Test.make ~name:"class lengths sum to total" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 80) (int_range 0 5))
    (fun ops ->
      let clock = ref 0.0 in
      let config = Taq_core.Taq_config.default ~capacity_pkts:100 ~capacity_bps:1e6 in
      let q = Taq_queues.create ~config ~now:(fun () -> !clock) in
      List.iter
        (fun op ->
          match op with
          | 0 -> Taq_queues.enqueue q Taq_queues.Recovery ~priority:1.0 (mk_data ())
          | 1 -> Taq_queues.enqueue q Taq_queues.New_flow (mk_data ())
          | 2 -> Taq_queues.enqueue q Taq_queues.Below_fair_share (mk_data ())
          | 3 -> Taq_queues.enqueue q Taq_queues.Above_fair_share (mk_data ())
          | 4 -> Taq_queues.enqueue q Taq_queues.Over_penalized (mk_data ())
          | _ -> ignore (Taq_queues.dequeue q))
        ops;
      let sum =
        List.fold_left
          (fun acc cls -> acc + Taq_queues.class_length q cls)
          0
          [ Taq_queues.Recovery; Taq_queues.New_flow; Taq_queues.Over_penalized;
            Taq_queues.Below_fair_share; Taq_queues.Above_fair_share ]
      in
      sum = Taq_queues.total_packets q)

(* --- Flow_tracker vs the scanning reference ---------------------------------- *)

(* The production tracker keeps its active counts as aggregates driven
   by a deadline heap, forgets idle flows through a second heap, and
   replays silent-epoch rolls lazily from a log of tick instants; the
   reference rescans the table on every query and rolls every flow at
   every tick. Both are driven lockstep through random interleavings.
   The aggregates must agree after every step; per-flow state is read
   only at [Op_check], so a flow can sit unread across many ticks, long
   gaps (beyond the 64-epoch catch-up budget) and drops before its
   deferred rolls are replayed. Time moves forward only (the tracker's
   contract), in random steps and in jumps landing exactly on a flow's
   window edge, one ulp either side of it, or just inside it — where
   the heap entry is already due but the flow is still active. *)

type tracker_op =
  | Op_syn of int
  | Op_data of int * bool  (* flow, retransmission *)
  | Op_drop of int
  | Op_tick
  | Op_ticks of int  (* a burst of ticks [tick_interval] apart *)
  | Op_advance of float
  | Op_edge of int * int  (* flow; -2 just inside, -1/0/+1 ulp *)
  | Op_idle_edge of int * int
      (* jump to the flow's idle-timeout edge (as [Op_edge]) and tick *)
  | Op_check of int  (* read every accessor of every flow; rotation *)
  | Op_restart

type tracker_scenario = {
  source : Taq_config.epoch_source;
  cap : int;
  ops : tracker_op list;
}

let tracker_flows = 8

let print_tracker_op = function
  | Op_syn f -> Printf.sprintf "syn(%d)" f
  | Op_data (f, r) -> Printf.sprintf "data(%d%s)" f (if r then ",retx" else "")
  | Op_drop f -> Printf.sprintf "drop(%d)" f
  | Op_tick -> "tick"
  | Op_ticks n -> Printf.sprintf "ticks(%d)" n
  | Op_advance dt -> Printf.sprintf "+%h" dt
  | Op_edge (f, d) -> Printf.sprintf "edge(%d,%d)" f d
  | Op_idle_edge (f, d) -> Printf.sprintf "idle-edge(%d,%d)" f d
  | Op_check r -> Printf.sprintf "check(%d)" r
  | Op_restart -> "restart"

let print_tracker_scenario s =
  Printf.sprintf "%s cap=%d [%s]"
    (match s.source with
    | Taq_config.Oracle e -> Printf.sprintf "oracle %g" e
    | Taq_config.Estimated -> "estimated")
    s.cap
    (String.concat " " (List.map print_tracker_op s.ops))

let gen_tracker_scenario =
  let open QCheck.Gen in
  let flow = int_range 0 (tracker_flows - 1) in
  let op =
    frequency
      [
        (3, map (fun f -> Op_syn f) flow);
        (8, map2 (fun f r -> Op_data (f, r)) flow bool);
        (3, map (fun f -> Op_drop f) flow);
        (2, return Op_tick);
        (2, map (fun n -> Op_ticks n) (int_range 2 40));
        ( 4,
          map
            (fun dt -> Op_advance dt)
            (oneof [ return 0.0; float_range 0.0 0.05; float_range 0.0 3.0 ]) );
        (* Gaps longer than 64 epochs of every epoch source (64 x 0.05 s
           up to 64 x the 1 s estimator cap), so that the catch-up
           budget runs out and snaps. *)
        (1, map (fun dt -> Op_advance dt) (float_range 3.3 70.0));
        (* Rare jumps past the idle timeout, so that [tick] expiry runs
           in the differential too. *)
        ( 1,
          map
            (fun dt -> Op_advance (Flow_tracker.flow_idle_timeout +. dt))
            (float_range 0.0 5.0) );
        (3, map2 (fun f d -> Op_edge (f, d)) flow (int_range (-2) 1));
        (1, map2 (fun f d -> Op_idle_edge (f, d)) flow (int_range (-2) 1));
        (2, map (fun r -> Op_check r) (int_range 0 1000));
        (1, return Op_restart);
      ]
  in
  let source =
    oneofl [ Taq_config.Oracle 0.05; Taq_config.Oracle 0.3; Taq_config.Estimated ]
  in
  map3
    (fun source cap ops -> { source; cap; ops })
    source (int_range 2 6)
    (list_size (int_range 1 150) op)

(* Every per-flow accessor, rendered so that floats compare bit for
   bit. [Op_check] reads them in a rotated order, so each one is the
   first read of some flow: an accessor that forgets to replay the
   deferred rolls shows up even when another accessor would. *)
let tracker_accessors =
  let b = string_of_bool and i = string_of_int and h = Printf.sprintf "%h" in
  [|
    ( "state",
      (fun t flow -> Flow_state.to_string (Flow_tracker.state t ~flow)),
      fun r flow -> Flow_state.to_string (Flow_tracker_ref.state r ~flow) );
    ( "silence epochs",
      (fun t flow -> i (Flow_tracker.silence_epochs t ~flow)),
      fun r flow -> i (Flow_tracker_ref.silence_epochs r ~flow) );
    ( "epochs observed",
      (fun t flow -> i (Flow_tracker.epochs_observed t ~flow)),
      fun r flow -> i (Flow_tracker_ref.epochs_observed r ~flow) );
    ( "rate",
      (fun t flow -> h (Flow_tracker.rate_bps t ~flow)),
      fun r flow -> h (Flow_tracker_ref.rate_bps r ~flow) );
    ( "outstanding drops",
      (fun t flow -> i (Flow_tracker.outstanding_drops t ~flow)),
      fun r flow -> i (Flow_tracker_ref.outstanding_drops r ~flow) );
    ( "recent drops",
      (fun t flow -> i (Flow_tracker.recent_drops t ~flow)),
      fun r flow -> i (Flow_tracker_ref.recent_drops r ~flow) );
    ( "overpenalized",
      (fun t flow -> b (Flow_tracker.is_overpenalized t ~flow)),
      fun r flow -> b (Flow_tracker_ref.is_overpenalized r ~flow) );
    ( "new flow",
      (fun t flow -> b (Flow_tracker.is_new_flow t ~flow)),
      fun r flow -> b (Flow_tracker_ref.is_new_flow r ~flow) );
    ( "epoch length",
      (fun t flow -> h (Flow_tracker.epoch_len t ~flow)),
      fun r flow -> h (Flow_tracker_ref.epoch_len r ~flow) );
    ( "below fair share",
      (fun t flow -> b (Flow_tracker.below_fair_share t ~flow)),
      fun r flow -> b (Flow_tracker_ref.below_fair_share r ~flow) );
  |]

let prop_tracker_matches_reference =
  QCheck.Test.make ~name:"flow tracker matches the scanning reference" ~count:300
    (QCheck.make ~print:print_tracker_scenario gen_tracker_scenario)
    (fun s ->
      let clock = ref 0.0 in
      let now () = !clock in
      let config =
        {
          (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
          Taq_config.epoch_source = s.source;
          max_tracked_flows = s.cap;
        }
      in
      let fresh () =
        ( Flow_tracker.create ~obs:Obs.off ~config ~now (),
          Flow_tracker_ref.create ~obs:Obs.off ~config ~now () )
      in
      let t = ref (fresh ()) in
      let next_seq = Array.make tracker_flows 0 in
      let last_seen = Array.make tracker_flows nan in
      let fail step what a b =
        QCheck.Test.fail_reportf "step %d at t=%h: %s: tracker %s, reference %s"
          step !clock what a b
      in
      let agree step =
        let t, r = !t in
        let ints what a b =
          if a <> b then fail step what (string_of_int a) (string_of_int b)
        and floats what a b =
          if a <> b then
            fail step what (Printf.sprintf "%h" a) (Printf.sprintf "%h" b)
        in
        ints "active flows" (Flow_tracker.active_flow_count t)
          (Flow_tracker_ref.active_flow_count r);
        ints "tracked" (Flow_tracker.tracked_flow_count t)
          (Flow_tracker_ref.tracked_flow_count r);
        ints "cap evictions" (Flow_tracker.cap_evictions t)
          (Flow_tracker_ref.cap_evictions r);
        floats "fair share" (Flow_tracker.fair_share_bps t)
          (Flow_tracker_ref.fair_share_bps r)
      in
      let check_flows step rotation =
        let t, r = !t in
        let n = Array.length tracker_accessors in
        for flow = 0 to tracker_flows - 1 do
          for k = 0 to n - 1 do
            let name, get, get_ref = tracker_accessors.((rotation + flow + k) mod n) in
            let a = get t flow and b = get_ref r flow in
            if a <> b then fail step (Printf.sprintf "%s flow %d" name flow) a b
          done
        done
      in
      (* Move the clock to [last_seen + width] of the flow, one ulp
         either side of it, or just inside it; never backwards. *)
      let jump_to_edge flow d width =
        let ls = last_seen.(flow) in
        if not (Float.is_nan ls) then begin
          let w = width () in
          let edge = ls +. w in
          let target =
            match d with
            | -2 -> edge -. (5e-10 *. (Float.abs ls +. w))
            | -1 -> Float.pred edge
            | 0 -> edge
            | _ -> Float.succ edge
          in
          if target >= !clock then clock := target
        end
      in
      List.iteri
        (fun step op ->
          let tr, r = !t in
          (match op with
          | Op_syn flow ->
              Flow_tracker.observe_syn tr ~flow;
              Flow_tracker_ref.observe_syn r ~flow;
              last_seen.(flow) <- !clock
          | Op_data (flow, retx) ->
              let seq =
                if retx then 0
                else begin
                  next_seq.(flow) <- next_seq.(flow) + 1;
                  next_seq.(flow)
                end
              in
              let p = mk_data ~flow ~seq () in
              let is_new = Flow_tracker.observe_data tr p = Flow_tracker.New_data
              and is_new_ref =
                Flow_tracker_ref.observe_data r p = Flow_tracker_ref.New_data
              in
              if is_new <> is_new_ref then
                fail step "new data" (string_of_bool is_new)
                  (string_of_bool is_new_ref);
              last_seen.(flow) <- !clock
          | Op_drop flow ->
              let p = mk_data ~flow ~seq:next_seq.(flow) () in
              Flow_tracker.observe_drop tr p;
              Flow_tracker_ref.observe_drop r p
          | Op_tick ->
              Flow_tracker.tick tr;
              Flow_tracker_ref.tick r
          | Op_ticks n ->
              for _ = 1 to n do
                clock := !clock +. Taq_config.tick_interval;
                Flow_tracker.tick tr;
                Flow_tracker_ref.tick r
              done
          | Op_advance dt -> clock := !clock +. dt
          | Op_edge (flow, d) ->
              (* The reference's epoch length: reading the tracker's
                 would replay the flow's deferred rolls. *)
              jump_to_edge flow d (fun () ->
                  Float.max 1.0 (5.0 *. Flow_tracker_ref.epoch_len r ~flow))
          | Op_idle_edge (flow, d) ->
              jump_to_edge flow d (fun () -> Flow_tracker.flow_idle_timeout);
              Flow_tracker.tick tr;
              Flow_tracker_ref.tick r
          | Op_check rotation -> check_flows step rotation
          | Op_restart -> t := fresh ());
          agree step)
        s.ops;
      true)

(* A tick must cost what expires, not what is tracked: over a table of
   silent flows, no tick may visit each flow (the eager tick read the
   clock once per flow per tick). The deferred rolls still come out
   exactly as the reference's eager ones. *)
let test_tracker_tick_cost_independent_of_table () =
  let clock = ref 0.0 and reads = ref 0 in
  let now () =
    incr reads;
    !clock
  in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Oracle 0.2;
    }
  in
  let t = Flow_tracker.create ~obs:Obs.off ~config ~now ()
  and r = Flow_tracker_ref.create ~obs:Obs.off ~config ~now:(fun () -> !clock) () in
  let flows = 1000 and ticks = 100 in
  for flow = 1 to flows do
    let p = mk_data ~flow ~seq:0 () in
    ignore (Flow_tracker.observe_data t p);
    ignore (Flow_tracker_ref.observe_data r p)
  done;
  reads := 0;
  for _ = 1 to ticks do
    clock := !clock +. Taq_config.tick_interval;
    Flow_tracker.tick t;
    Flow_tracker_ref.tick r
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d clock reads over %d ticks of %d flows" !reads ticks flows)
    true
    (!reads <= 2 * ticks);
  Alcotest.(check int) "all still tracked" flows (Flow_tracker.tracked_flow_count t);
  List.iter
    (fun flow ->
      Alcotest.(check int)
        (Printf.sprintf "silence epochs of flow %d" flow)
        (Flow_tracker_ref.silence_epochs r ~flow)
        (Flow_tracker.silence_epochs t ~flow);
      Alcotest.(check string)
        (Printf.sprintf "state of flow %d" flow)
        (Flow_state.to_string (Flow_tracker_ref.state r ~flow))
        (Flow_state.to_string (Flow_tracker.state t ~flow)))
    [ 1; 500; flows ]

(* --- Admission vs the scanning reference ------------------------------------- *)

(* The production controller expires pools through a deadline heap; the
   reference walks both pool tables on every [expire]. Both are driven
   lockstep through random SYN/touch/loss/expire/shed interleavings,
   with clock jumps landing on a pool's [pool_expiry] edge, one ulp
   either side of it, or just inside it, and must agree after every
   step on every decision, both counts and every pool's feedback. *)

type admission_op =
  | Adm_syn of int
  | Adm_touch of int
  | Adm_arrivals of int
  | Adm_drops of int
  | Adm_expire
  | Adm_shed
  | Adm_advance of float
  | Adm_edge of int * bool * int
      (* pool; edge of its waiting (else admitted) stamp; -2 just
         inside, -1/0/+1 ulp *)

let admission_pools = 6

(* Pool-less flows map to negative keys. *)
let admission_key i = i - 2

let print_admission_op = function
  | Adm_syn k -> Printf.sprintf "syn(%d)" k
  | Adm_touch k -> Printf.sprintf "touch(%d)" k
  | Adm_arrivals n -> Printf.sprintf "arrivals(%d)" n
  | Adm_drops n -> Printf.sprintf "drops(%d)" n
  | Adm_expire -> "expire"
  | Adm_shed -> "shed"
  | Adm_advance dt -> Printf.sprintf "+%h" dt
  | Adm_edge (k, w, d) ->
      Printf.sprintf "edge(%d,%s,%d)" k (if w then "waiting" else "admitted") d

let gen_admission_ops =
  let open QCheck.Gen in
  let pool = int_range 0 (admission_pools - 1) in
  let op =
    frequency
      [
        (6, map (fun k -> Adm_syn k) pool);
        (4, map (fun k -> Adm_touch k) pool);
        (2, map (fun n -> Adm_arrivals n) (int_range 1 40));
        (2, map (fun n -> Adm_drops n) (int_range 1 40));
        (3, return Adm_expire);
        (1, return Adm_shed);
        ( 4,
          map
            (fun dt -> Adm_advance dt)
            (oneof
               [
                 return 0.0;
                 float_range 0.0 1.0;
                 float_range 0.0 (2.0 *. Admission.t_wait);
                 float_range 0.0 (1.5 *. Admission.pool_expiry);
               ]) );
        (3, map3 (fun k w d -> Adm_edge (k, w, d)) pool bool (int_range (-2) 1));
      ]
  in
  list_size (int_range 1 150) op

let prop_admission_matches_reference =
  QCheck.Test.make ~name:"admission matches the scanning reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map print_admission_op ops))
       gen_admission_ops)
    (fun ops ->
      let clock = ref 0.0 in
      let now () = !clock in
      let a = Admission.create ~pthresh:0.1 ~now
      and r = Admission_ref.create ~pthresh:0.1 ~now in
      let admitted_at = Array.make admission_pools nan
      and waiting_since = Array.make admission_pools nan in
      let fail step what x y =
        QCheck.Test.fail_reportf "step %d at t=%h: %s: admission %s, reference %s"
          step !clock what x y
      in
      let feedback = function
        | None -> "none"
        | Some (f : Admission.feedback) ->
            Printf.sprintf "%d/%h" f.Admission.position f.Admission.expected_wait
      and feedback_ref = function
        | None -> "none"
        | Some (f : Admission_ref.feedback) ->
            Printf.sprintf "%d/%h" f.Admission_ref.position
              f.Admission_ref.expected_wait
      in
      let agree step =
        let ints what x y =
          if x <> y then fail step what (string_of_int x) (string_of_int y)
        in
        ints "admitted" (Admission.admitted_count a) (Admission_ref.admitted_count r);
        ints "waiting" (Admission.waiting_count a) (Admission_ref.waiting_count r);
        for i = 0 to admission_pools - 1 do
          let key = admission_key i in
          let x = feedback (Admission.feedback a ~key)
          and y = feedback_ref (Admission_ref.feedback r ~key) in
          if x <> y then fail step (Printf.sprintf "feedback %d" key) x y
        done
      in
      List.iteri
        (fun step op ->
          (match op with
          | Adm_syn i ->
              let key = admission_key i in
              let was_waiting = Admission_ref.feedback r ~key <> None in
              let d = Admission.on_syn a ~key = Admission.Admitted
              and d_ref = Admission_ref.on_syn r ~key = Admission_ref.Admitted in
              if d <> d_ref then
                fail step (Printf.sprintf "decision %d" key) (string_of_bool d)
                  (string_of_bool d_ref);
              if d_ref then admitted_at.(i) <- !clock
              else if not was_waiting then waiting_since.(i) <- !clock
          | Adm_touch i ->
              let key = admission_key i in
              Admission.touch a ~key;
              Admission_ref.touch r ~key;
              (* Wrong only while the pool is not admitted, when no
                 admitted edge exists to aim at. *)
              admitted_at.(i) <- !clock
          | Adm_arrivals n ->
              for _ = 1 to n do
                Admission.note_arrival a;
                Admission_ref.note_arrival r
              done
          | Adm_drops n ->
              for _ = 1 to n do
                Admission.note_drop a;
                Admission_ref.note_drop r
              done
          | Adm_expire ->
              Admission.expire a;
              Admission_ref.expire r
          | Adm_shed ->
              Admission.shed_waiting a;
              Admission_ref.shed_waiting r
          | Adm_advance dt -> clock := !clock +. dt
          | Adm_edge (i, waiting, d) ->
              let stamp = if waiting then waiting_since.(i) else admitted_at.(i) in
              if not (Float.is_nan stamp) then begin
                let edge = stamp +. Admission.pool_expiry in
                let target =
                  match d with
                  | -2 -> edge -. (5e-10 *. (Float.abs stamp +. Admission.pool_expiry))
                  | -1 -> Float.pred edge
                  | 0 -> edge
                  | _ -> Float.succ edge
                in
                if target >= !clock then clock := target
              end);
          agree step)
        ops;
      true)

let () =
  Alcotest.run "taq_core"
    [
      ( "flow_state",
        [
          Alcotest.test_case "ss growth" `Quick test_fs_slow_start_growth;
          Alcotest.test_case "ss to normal" `Quick test_fs_slow_start_to_normal;
          Alcotest.test_case "drop to recovery" `Quick test_fs_drop_triggers_recovery;
          Alcotest.test_case "silence after drop" `Quick
            test_fs_silence_after_drop_is_timeout;
          Alcotest.test_case "idle dummy state" `Quick
            test_fs_silence_without_drop_is_idle;
          Alcotest.test_case "extended silence" `Quick test_fs_repeated_silence_extends;
          Alcotest.test_case "timeout recovery" `Quick
            test_fs_retx_after_silence_is_timeout_recovery;
          Alcotest.test_case "recovery to slow start" `Quick
            test_fs_timeout_recovery_to_slow_start;
          Alcotest.test_case "loss recovery to normal" `Quick
            test_fs_loss_recovery_completes_to_normal;
          Alcotest.test_case "repetitive timeout" `Quick
            test_fs_lost_recovery_retx_means_repetitive;
          Alcotest.test_case "total function" `Quick test_fs_total_over_all_states;
        ] );
      ( "epoch_estimator",
        [
          Alcotest.test_case "default" `Quick test_epoch_default_before_evidence;
          Alcotest.test_case "oracle" `Quick test_epoch_oracle;
          Alcotest.test_case "syn gap" `Quick test_epoch_syn_data_gap;
          Alcotest.test_case "burst detection" `Quick test_epoch_burst_detection;
          Alcotest.test_case "clamped" `Quick test_epoch_clamped;
        ] );
      ( "flow_tracker",
        [
          Alcotest.test_case "new vs retx" `Quick test_tracker_classifies_new_vs_retx;
          Alcotest.test_case "sender flag ignored" `Quick
            test_tracker_ignores_sender_retx_flag;
          Alcotest.test_case "silence epochs" `Quick test_tracker_silence_epochs_accumulate;
          Alcotest.test_case "overpenalized" `Quick test_tracker_overpenalized;
          Alcotest.test_case "new flow ages" `Quick test_tracker_new_flow_ages_out;
          Alcotest.test_case "outstanding drops" `Quick
            test_tracker_retx_consumes_outstanding_drop;
          Alcotest.test_case "idle expiry" `Quick test_tracker_expires_idle_flows;
          Alcotest.test_case "rates and shares" `Quick test_tracker_rate_and_fair_share;
          Alcotest.test_case "shrinking epoch" `Quick
            test_tracker_shrinking_epoch_expires_earlier;
          Alcotest.test_case "tick cost independent of table" `Quick
            test_tracker_tick_cost_independent_of_table;
        ] );
      ( "fair_share",
        [
          Alcotest.test_case "basic" `Quick test_fair_share_basic;
        ] );
      ( "taq_queues",
        [
          Alcotest.test_case "recovery priority" `Quick test_queues_recovery_priority_order;
          Alcotest.test_case "recovery first" `Quick test_queues_recovery_beats_everything;
          Alcotest.test_case "above last" `Quick test_queues_above_served_last;
          Alcotest.test_case "token bucket" `Quick test_queues_token_bucket_limits_recovery;
          Alcotest.test_case "victim selection" `Quick test_queues_victim_selection;
          Alcotest.test_case "accounting" `Quick test_queues_accounting;
        ] );
      ( "admission",
        [
          Alcotest.test_case "low loss admits" `Quick test_admission_low_loss_admits;
          Alcotest.test_case "high loss rejects" `Quick test_admission_high_loss_rejects_new;
          Alcotest.test_case "admitted stays" `Quick test_admission_admitted_pool_stays;
          Alcotest.test_case "t_wait guarantee" `Quick test_admission_t_wait_guarantee;
          Alcotest.test_case "expiry" `Quick test_admission_pool_expiry;
          Alcotest.test_case "feedback positions" `Quick
            test_admission_feedback_queue_positions;
          Alcotest.test_case "feedback cleared" `Quick
            test_admission_feedback_cleared_on_admit;
          Alcotest.test_case "waiting expiry" `Quick test_admission_waiting_expiry;
          Alcotest.test_case "shed waiting" `Quick test_admission_shed_waiting;
        ] );
      ( "tracker_cap",
        [
          Alcotest.test_case "never exceeded" `Quick test_tracker_cap_never_exceeded;
          Alcotest.test_case "evicts lru" `Quick test_tracker_cap_evicts_lru;
          Alcotest.test_case "counts into given obs" `Quick
            test_tracker_counts_into_given_obs;
        ] );
      ( "overload_guard",
        [
          Alcotest.test_case "sustained pressure" `Quick
            test_guard_trips_only_on_sustained_pressure;
          Alcotest.test_case "full arc" `Quick test_guard_full_arc_and_dwells;
          Alcotest.test_case "recovering retrips" `Quick test_guard_recovering_retrips;
          Alcotest.test_case "waiting backlog" `Quick
            test_guard_waiting_backlog_is_pressure;
          Alcotest.test_case "config validation" `Quick test_config_guard_validation;
          Alcotest.test_case "given check and obs" `Quick
            test_guard_reports_to_given_check_and_obs;
        ] );
      ( "taq_disc",
        [
          Alcotest.test_case "accepts and serves" `Quick test_disc_accepts_and_serves;
          Alcotest.test_case "pushout" `Quick test_disc_pushout_prefers_low_priority;
          Alcotest.test_case "syn rejected" `Quick
            test_disc_syn_rejected_under_admission_pressure;
          Alcotest.test_case "syn admitted" `Quick test_disc_syn_admitted_when_clear;
          Alcotest.test_case "conservation" `Quick test_disc_conservation;
          Alcotest.test_case "degraded bypass" `Quick test_disc_degraded_bypass;
          Alcotest.test_case "syn dropped at newflow cap" `Quick
            test_disc_syn_dropped_at_newflow_cap;
          Alcotest.test_case "young data at newflow cap" `Quick
            test_disc_young_data_falls_back_at_newflow_cap;
        ] );
      ( "integration",
        [
          Alcotest.test_case "taq beats droptail" `Slow test_taq_beats_droptail_fairness;
          Alcotest.test_case "utilization preserved" `Slow test_taq_preserves_utilization;
          Alcotest.test_case "taq over lossy path" `Slow test_taq_over_lossy_path;
          Alcotest.test_case "idle persistent flow" `Quick
            test_taq_idle_persistent_flow_classified_idle;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_taq"))
          [
            prop_taq_queues_conserve_packets;
            prop_taq_queue_class_lengths_sum;
            prop_tracker_matches_reference;
            prop_admission_matches_reference;
          ] );
    ]
