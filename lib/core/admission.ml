type decision = Admitted | Rejected

(* §4.3's fixed parameters. Admission resumes below [pthresh -
   hysteresis] ("slightly smaller ... as a congestion avoidance
   strategy"); [t_wait] stays under the SYN retry timeout. *)
let hysteresis = 0.02
let t_wait = 2.5
let pool_expiry = 60.0
let loss_alpha = 0.005

module Event_heap = Taq_engine.Event_heap

type pool = {
  mutable last : float;
      (* admitted: last active; waiting: first rejected *)
  mutable armed : float;  (* key of the pool's armed expiry-heap entry *)
}

type t = {
  pthresh : float;
  now : unit -> float;
  loss : Taq_util.Ewma.t;
  admitted : (int, pool) Hashtbl.t;
  waiting : (int, pool) Hashtbl.t;
  mutable wait_order : int list;  (* FIFO of waiting pools (oldest first) *)
  mutable last_forced : float;  (* last Twait-guaranteed admission *)
  expiries : Event_heap.t;
      (* pool-key payloads keyed by a lower bound on when the pool
         expires; entries of removed or re-armed pools go stale and are
         skipped when they pop *)
}

let create ~pthresh ~now =
  {
    pthresh;
    now;
    loss = Taq_util.Ewma.create ~alpha:loss_alpha;
    admitted = Hashtbl.create 64;
    waiting = Hashtbl.create 64;
    wait_order = [];
    last_forced = neg_infinity;
    expiries = Event_heap.create ();
  }

(* --- Expiry ----------------------------------------------------------------

   A pool expires once [now -. last > pool_expiry]. [last] only moves
   forward, so each pool keeps one heap entry at a lower bound on that
   instant ([last + pool_expiry] less a 1e-9-relative slack, far above
   the rounding of the sum and the predicate's subtraction). [expire]
   pops the due entries and re-reads the exact predicate: remove, or
   re-arm at the bound for the current [last]. *)

let expiry p =
  p.last +. pool_expiry -. (1e-9 *. (Float.abs p.last +. pool_expiry))

let arm t ~key p at =
  p.armed <- at;
  Event_heap.push t.expiries ~time:at key

let track t tbl ~key ~now =
  let p = { last = now; armed = 0.0 } in
  Hashtbl.replace tbl key p;
  arm t ~key p (expiry p)

(* The entry [(at, key)] popped: true iff it removed the pool from
   [tbl]. *)
let expire_pool t tbl ~key ~at ~now =
  match Hashtbl.find_opt tbl key with
  | Some p when p.armed = at ->
      if now -. p.last > pool_expiry then begin
        Hashtbl.remove tbl key;
        true
      end
      else begin
        arm t ~key p (Float.max (expiry p) (Float.succ now));
        false
      end
  | Some _ | None -> false

let note_arrival t = Taq_util.Ewma.update t.loss 0.0

let note_drop t = Taq_util.Ewma.update t.loss 1.0

let loss_rate t =
  if Taq_util.Ewma.is_initialized t.loss then Taq_util.Ewma.value t.loss
  else 0.0

let admit t ~key =
  Hashtbl.remove t.waiting key;
  t.wait_order <- List.filter (fun k -> k <> key) t.wait_order;
  track t t.admitted ~key ~now:(t.now ())

let on_syn t ~key =
  let now = t.now () in
  match Hashtbl.find_opt t.admitted key with
  | Some p ->
      p.last <- now;
      Admitted
  | None ->
      let threshold = t.pthresh -. hysteresis in
      if loss_rate t < threshold then begin
        admit t ~key;
        Admitted
      end
      else begin
        (match Hashtbl.find_opt t.waiting key with
        | Some _ -> ()
        | None ->
            track t t.waiting ~key ~now;
            t.wait_order <- t.wait_order @ [ key ]);
        (* The Twait guarantee admits pools one at a time, oldest first:
           blanket admission after Twait would restore the very
           contention the controller exists to limit. *)
        let head_is_us =
          match t.wait_order with k :: _ -> k = key | [] -> false
        in
        let waited = now -. (Hashtbl.find t.waiting key).last in
        if
          head_is_us
          && waited >= t_wait
          && now -. t.last_forced >= t_wait
        then begin
          t.last_forced <- now;
          admit t ~key;
          Admitted
        end
        else Rejected
      end

let touch t ~key =
  match Hashtbl.find t.admitted key with
  | p -> p.last <- t.now ()
  | exception Not_found -> ()

let admitted_count t = Hashtbl.length t.admitted

let waiting_count t = Hashtbl.length t.waiting

type feedback = { position : int; expected_wait : float }

let feedback t ~key =
  if Hashtbl.mem t.admitted key then None
  else begin
    let rec position i = function
      | [] -> None
      | k :: _ when k = key -> Some i
      | _ :: rest -> position (i + 1) rest
    in
    match position 1 t.wait_order with
    | None -> None
    | Some position ->
        (* Pools ahead of us each consume one Twait slot; our own slot
           opens Twait after the previous forced admission. *)
        let now = t.now () in
        let next_slot = Float.max 0.0 (t.last_forced +. t_wait -. now) in
        let expected_wait =
          next_slot +. (float_of_int (position - 1) *. t_wait)
        in
        Some { position; expected_wait }
  end

let shed_waiting t =
  Hashtbl.reset t.waiting;
  t.wait_order <- []

(* Waiting pools whose client never retries its SYN would otherwise sit
   in [waiting]/[wait_order] forever — unbounded state, and an eternal
   head-of-line blocker for the Twait guarantee (which only
   force-admits the oldest waiter). They expire by first-rejection
   time. *)
let expire t =
  let now = t.now () in
  let h = t.expiries in
  let pruned_waiting = ref false in
  while (not (Event_heap.is_empty h)) && Event_heap.top_time h <= now do
    let at = Event_heap.top_time h in
    let key = Event_heap.pop_payload h in
    ignore (expire_pool t t.admitted ~key ~at ~now : bool);
    if expire_pool t t.waiting ~key ~at ~now then pruned_waiting := true
  done;
  if !pruned_waiting then
    t.wait_order <- List.filter (Hashtbl.mem t.waiting) t.wait_order
