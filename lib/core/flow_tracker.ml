module Packet = Taq_net.Packet
module Event_heap = Taq_engine.Event_heap

type classification = New_data | Retransmission

let flow_idle_timeout = 120.0

type flow = {
  id : int;
  est : Epoch_estimator.t;
  mutable state : Flow_state.t;
  mutable epoch_start : float;
  mutable new_pkts : int;
  mutable retx_pkts : int;
  mutable bytes_this_epoch : int;
  mutable drops_this_epoch : int;
  mutable drops_prev_epoch : int;
  mutable prev_new_pkts : int;
  mutable highest_seq : int;
  mutable outstanding_drops : int;
  mutable silence_epochs : int;
  mutable epochs_observed : int;
  rate : Taq_util.Ewma.t;
  mutable last_seen : float;
  mutable active : bool;  (* counted in [n_active]; see [expire] *)
  mutable deadline : float;
      (* key of the flow's one armed deadline-heap entry; meaningful
         only while [active] *)
  mutable idle_key : float;  (* key of the flow's armed idle-heap entry *)
  mutable synced : int;
      (* absolute tick-log index of the first tick whose catch-up the
         flow has not replayed yet; see [sync] *)
}

type t = {
  config : Taq_config.t;
  now : unit -> float;
  flows : (int, flow) Hashtbl.t;
  deadlines : Event_heap.t;
      (* flow-id payloads keyed by a lower bound on when the flow goes
         inactive; entries of forgotten or re-armed flows go stale and
         are skipped when they pop *)
  mutable n_active : int;
  idle : Event_heap.t;
      (* flow-id payloads keyed by a lower bound on when the flow
         exceeds [flow_idle_timeout]; stale entries as in [deadlines] *)
  mutable ticks : float array;
      (* the tick log: instants of past ticks, live in positions
         [ticks_lo, ticks_hi); position [p] is absolute index
         [ticks_base + p] *)
  mutable ticks_base : int;
  mutable ticks_lo : int;
  mutable ticks_hi : int;
  mutable cap_evictions : int;
  mutable peak_tracked : int;
  (* Pre-resolved observability counters (dummy refs when obs is off,
     so the rare-event hot paths below stay branch-free). *)
  obs_flows_created : int ref;
  obs_evictions : int ref;
  obs_cap_evictions : int ref;
}

let create ~obs ~config ~now () =
  {
    config;
    now;
    flows = Hashtbl.create 256;
    deadlines = Event_heap.create ();
    n_active = 0;
    idle = Event_heap.create ();
    ticks = Array.make 64 0.0;
    ticks_base = 0;
    ticks_lo = 0;
    ticks_hi = 0;
    cap_evictions = 0;
    peak_tracked = 0;
    obs_flows_created = Taq_obs.Obs.labeled_ref obs "tracker.flows_created";
    obs_evictions = Taq_obs.Obs.labeled_ref obs "tracker.evictions";
    obs_cap_evictions = Taq_obs.Obs.labeled_ref obs "tracker.cap_evictions";
  }

(* --- Active-flow accounting ----------------------------------------------

   A flow is active iff [now -. last_seen <= window], the window being
   five epochs and at least a second. Both operands change only when
   the flow is observed, and the difference only grows with the
   (monotone) clock, so once the predicate fails it stays failed until
   the next observation. The count is therefore kept as an aggregate:
   an observation activates the flow and arms a deadline-heap entry at
   a lower bound on its expiry; [expire] pops the entries that are due
   and re-evaluates the exact predicate, retiring the flow or
   re-arming it. Decisions read only the predicate, never a key, so the
   count equals a full scan's at every call. *)

let window f = Float.max 1.0 (5.0 *. Epoch_estimator.epoch f.est)

let is_active_at ~now f = now -. f.last_seen <= window f

(* [last_seen + span] less a slack of 1e-9 relative — far above the
   rounding of both this sum and the predicates' subtraction, so
   [now -. last_seen <= span] holds at every instant before the key. *)
let bound f span =
  f.last_seen +. span -. (1e-9 *. (Float.abs f.last_seen +. span))

let deadline f = bound f (window f)

let arm t f key =
  f.deadline <- key;
  Event_heap.push t.deadlines ~time:key f.id

let set_active t f active =
  if f.active <> active then begin
    f.active <- active;
    t.n_active <- (t.n_active + if active then 1 else -1)
  end

(* The flow was just observed, so it is active. Its armed entry must
   not fire after the new deadline: a shrunken epoch estimate moves the
   deadline earlier and arms a fresh entry. A later deadline is picked
   up when the armed entry pops. *)
let touch t f =
  let key = deadline f in
  if not f.active then begin
    set_active t f true;
    arm t f key
  end
  else if key < f.deadline then arm t f key

let expire t =
  let now = t.now () in
  let h = t.deadlines in
  while (not (Event_heap.is_empty h)) && Event_heap.top_time h <= now do
    let key = Event_heap.top_time h in
    match Hashtbl.find_opt t.flows (Event_heap.pop_payload h) with
    | Some f when f.active && f.deadline = key ->
        if is_active_at ~now f then
          arm t f (Float.max (deadline f) (Float.succ now))
        else set_active t f false
    | Some _ | None -> ()
  done

(* Drop the flow from the table and from the count; its armed entries
   go stale. *)
let forget t f =
  set_active t f false;
  Hashtbl.remove t.flows f.id

(* --- Idle expiry -----------------------------------------------------------

   A flow is forgotten at the first tick with
   [now -. last_seen > flow_idle_timeout]. As with the active window,
   the predicate changes only when the flow is observed, so each flow
   keeps one idle-heap entry keyed by a lower bound on that instant
   (the same 1e-9-relative slack). A tick pops the due entries and
   re-reads the exact predicate: forget, or re-arm at the bound for the
   current [last_seen] (an observation since arming moved it later). *)

let idle_deadline f = bound f flow_idle_timeout

let arm_idle t f key =
  f.idle_key <- key;
  Event_heap.push t.idle ~time:key f.id

let forget_idle t ~now =
  let h = t.idle in
  let expired = ref 0 in
  while (not (Event_heap.is_empty h)) && Event_heap.top_time h <= now do
    let key = Event_heap.top_time h in
    match Hashtbl.find_opt t.flows (Event_heap.pop_payload h) with
    | Some f when f.idle_key = key ->
        if now -. f.last_seen > flow_idle_timeout then begin
          forget t f;
          incr expired
        end
        else arm_idle t f (Float.max (idle_deadline f) (Float.succ now))
    | Some _ | None -> ()
  done;
  if !expired > 0 then t.obs_evictions := !(t.obs_evictions) + !expired

let new_flow t ~id =
  {
    id;
    est = Epoch_estimator.create t.config.Taq_config.epoch_source;
    state = Flow_state.initial;
    epoch_start = t.now ();
    new_pkts = 0;
    retx_pkts = 0;
    bytes_this_epoch = 0;
    drops_this_epoch = 0;
    drops_prev_epoch = 0;
    prev_new_pkts = 0;
    highest_seq = -1;
    outstanding_drops = 0;
    silence_epochs = 0;
    epochs_observed = 0;
    rate = Taq_util.Ewma.create ~alpha:0.3;
    last_seen = t.now ();
    active = false;
    deadline = 0.0;
    idle_key = 0.0;
    synced = t.ticks_base + t.ticks_hi;
  }

(* The hard state bound: inserting into a full table evicts the
   least-recently-seen entry first (ties broken by lowest id for
   determinism). Idle flows age to the LRU end within an RTT, so under
   a one-packet-flow flood this is exactly idle-first eviction; the
   legitimate flows being actively forwarded keep refreshing
   [last_seen] and survive. O(n) scan — acceptable because it only
   runs when the table is already at its configured cap. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun id f ->
      match !victim with
      | None -> victim := Some (id, f)
      | Some (vid, v) ->
          if
            f.last_seen < v.last_seen
            || (f.last_seen = v.last_seen && id < vid)
          then victim := Some (id, f))
    t.flows;
  match !victim with
  | None -> ()
  | Some (_, f) ->
      forget t f;
      t.cap_evictions <- t.cap_evictions + 1;
      incr t.obs_cap_evictions

let lookup t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | Some f -> f
  | None ->
      if Hashtbl.length t.flows >= t.config.Taq_config.max_tracked_flows then
        evict_lru t;
      let f = new_flow t ~id:flow in
      Hashtbl.replace t.flows flow f;
      arm_idle t f (idle_deadline f);
      incr t.obs_flows_created;
      let n = Hashtbl.length t.flows in
      if n > t.peak_tracked then t.peak_tracked <- n;
      f

let roll_one_epoch f ~epoch =
  let obs =
    {
      Flow_state.new_pkts = f.new_pkts;
      retx_pkts = f.retx_pkts;
      drops = f.drops_this_epoch;
      prev_new_pkts = f.prev_new_pkts;
      outstanding_drops = f.outstanding_drops;
    }
  in
  f.state <- Flow_state.step f.state obs;
  if f.new_pkts = 0 && f.retx_pkts = 0 then
    f.silence_epochs <- f.silence_epochs + 1
  else f.silence_epochs <- 0;
  Taq_util.Ewma.update f.rate
    (float_of_int (f.bytes_this_epoch * 8) /. epoch);
  f.prev_new_pkts <- f.new_pkts;
  f.drops_prev_epoch <- f.drops_this_epoch;
  f.new_pkts <- 0;
  f.retx_pkts <- 0;
  f.bytes_this_epoch <- 0;
  f.drops_this_epoch <- 0;
  f.epoch_start <- f.epoch_start +. epoch;
  f.epochs_observed <- f.epochs_observed + 1

(* Advance the flow's epoch boundary up to [now]; several epochs may
   have elapsed silently. Bounded per call so a flow returning after a
   very long idle period cannot stall the queue. *)
let catch_up f ~now =
  let budget = ref 64 in
  let continue = ref true in
  while !continue && !budget > 0 do
    let epoch = Epoch_estimator.epoch f.est in
    if now -. f.epoch_start >= epoch then begin
      roll_one_epoch f ~epoch;
      decr budget
    end
    else continue := false
  done;
  if !budget = 0 then f.epoch_start <- now

(* --- Lazy epoch rolls ------------------------------------------------------

   Every tick catches each flow up to the tick's instant, rolling the
   epochs it spent silent. Those rolls depend only on [epoch_start],
   the epoch length and the tick instants, and the epoch length changes
   only in [observe_data], after a [sync]. So [tick] just logs its
   instant, and [sync] replays a flow's unapplied ticks before anything
   reads or writes its epoch state. A tick at instant [at] rolls the
   flow iff [at -. epoch_start >= epoch], which is monotone in [at]:
   the first tick that rolls is found by binary search (ticks before
   it were no-ops), [catch_up] runs at its instant with the same budget
   and snap as the eager tick, and the search resumes after it. *)

let sync t f =
  let hi = t.ticks_hi in
  if f.synced < t.ticks_base + hi then begin
    let ticks = t.ticks in
    let epoch = Epoch_estimator.epoch f.est in
    let p = ref (f.synced - t.ticks_base) in
    while !p < hi do
      let lo = ref !p and up = ref hi in
      while !lo < !up do
        let mid = (!lo + !up) lsr 1 in
        if ticks.(mid) -. f.epoch_start >= epoch then up := mid
        else lo := mid + 1
      done;
      if !lo < hi then catch_up f ~now:ticks.(!lo);
      p := !lo + 1
    done;
    f.synced <- t.ticks_base + hi
  end

(* Append [now] to the tick log after dropping the instants no live
   flow still needs. Each flow is synced at every observation, so its
   unapplied ticks are no older than its [last_seen]; once the due idle
   flows are forgotten, every live flow has
   [now -. last_seen <= flow_idle_timeout], hence needs no instant
   older than that. *)
let log_tick t ~now =
  while
    t.ticks_lo < t.ticks_hi
    && now -. t.ticks.(t.ticks_lo) > flow_idle_timeout
  do
    t.ticks_lo <- t.ticks_lo + 1
  done;
  let cap = Array.length t.ticks in
  if t.ticks_hi = cap then begin
    let live = t.ticks_hi - t.ticks_lo in
    let dst = if 2 * live > cap then Array.make (2 * cap) 0.0 else t.ticks in
    Array.blit t.ticks t.ticks_lo dst 0 live;
    t.ticks <- dst;
    t.ticks_base <- t.ticks_base + t.ticks_lo;
    t.ticks_lo <- 0;
    t.ticks_hi <- live
  end;
  t.ticks.(t.ticks_hi) <- now;
  t.ticks_hi <- t.ticks_hi + 1

let observe_syn t ~flow =
  let f = lookup t ~flow in
  sync t f;
  f.last_seen <- t.now ();
  Epoch_estimator.note_syn f.est ~time:(t.now ());
  touch t f

let observe_data t (p : Packet.t) =
  let f = lookup t ~flow:p.flow in
  sync t f;
  let now = t.now () in
  catch_up f ~now;
  f.last_seen <- now;
  Epoch_estimator.note_packet f.est ~time:now;
  touch t f;
  f.bytes_this_epoch <- f.bytes_this_epoch + p.size;
  if p.seq <= f.highest_seq then begin
    f.retx_pkts <- f.retx_pkts + 1;
    f.outstanding_drops <- Stdlib.max 0 (f.outstanding_drops - 1);
    Retransmission
  end
  else begin
    f.new_pkts <- f.new_pkts + 1;
    f.highest_seq <- p.seq;
    New_data
  end

let observe_drop t (p : Packet.t) =
  match Hashtbl.find_opt t.flows p.flow with
  | None -> ()
  | Some f ->
      sync t f;
      f.drops_this_epoch <- f.drops_this_epoch + 1;
      f.outstanding_drops <- f.outstanding_drops + 1

let tick t =
  let now = t.now () in
  forget_idle t ~now;
  log_tick t ~now

let with_flow t ~flow ~default f =
  match Hashtbl.find_opt t.flows flow with
  | None -> default
  | Some fl ->
      sync t fl;
      f fl

let state t ~flow = with_flow t ~flow ~default:Flow_state.initial (fun f -> f.state)

let silence_epochs t ~flow = with_flow t ~flow ~default:0 (fun f -> f.silence_epochs)

let epoch_len t ~flow =
  with_flow t ~flow
    ~default:
      (match t.config.Taq_config.epoch_source with
      | Taq_config.Oracle rtt -> rtt
      | Taq_config.Estimated -> Epoch_estimator.default_epoch)
    (fun f -> Epoch_estimator.epoch f.est)

let epochs_observed t ~flow = with_flow t ~flow ~default:0 (fun f -> f.epochs_observed)

let rate_bps t ~flow =
  with_flow t ~flow ~default:0.0 (fun f ->
      if Taq_util.Ewma.is_initialized f.rate then Taq_util.Ewma.value f.rate
      else 0.0)

let outstanding_drops t ~flow =
  with_flow t ~flow ~default:0 (fun f -> f.outstanding_drops)

let recent_drops t ~flow =
  with_flow t ~flow ~default:0 (fun f ->
      f.drops_this_epoch + f.drops_prev_epoch)

let is_overpenalized t ~flow =
  recent_drops t ~flow > t.config.Taq_config.overpenalize_drops

let is_new_flow t ~flow =
  with_flow t ~flow ~default:true (fun f ->
      f.epochs_observed < Taq_config.slowstart_epochs
      &&
      match f.state with
      | Flow_state.Slow_start -> true
      | Flow_state.Normal | Flow_state.Loss_recovery
      | Flow_state.Timeout_silence | Flow_state.Timeout_recovery
      | Flow_state.Extended_silence | Flow_state.Idle ->
          false)

let active_flow_count t =
  expire t;
  t.n_active

let tracked_flow_count t = Hashtbl.length t.flows
let cap_evictions t = t.cap_evictions
let peak_tracked t = t.peak_tracked

let fair_share_bps t =
  t.config.Taq_config.capacity_bps
  /. float_of_int (Stdlib.max 1 (active_flow_count t))

let below_fair_share t ~flow = rate_bps t ~flow < fair_share_bps t

let recount t =
  let now = t.now () in
  Hashtbl.fold (fun _ f n -> if is_active_at ~now f then n + 1 else n) t.flows 0
