type 'a result = {
  key : string;
  value : ('a, string) Stdlib.result;
  elapsed_s : float;
  attempts : int;
  timed_out : bool;
  obs : Taq_obs.Obs.snapshot;
}

(* --- cooperative cancellation ------------------------------------------ *)

(* One process-wide flag, following the write-once ambient pattern of
   Check/Obs/Plan: the CLI installs signal handlers on the main domain
   before any pool runs, worker domains poll the flag between tasks.
   The first signal asks the pool to finish in-flight tasks and mark
   the rest cancelled; the second exits immediately. *)

let cancel_flag = Atomic.make false

let request_cancel () = Atomic.set cancel_flag true

let cancel_requested () = Atomic.get cancel_flag

let reset_cancel () = Atomic.set cancel_flag false

let cancelled_exit_code = 130

let forced_exit_code = 131

let cancelled_message = "cancelled"

let install_signal_cancellation ?(label = "run") () =
  let handler _ =
    if Atomic.get cancel_flag then Stdlib.exit forced_exit_code
    else begin
      Atomic.set cancel_flag true;
      Printf.eprintf
        "taq: signal received — cancelling the %s after in-flight tasks \
         (signal again to force-quit)\n%!"
        label
    end
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* --- a tiny closeable work queue (Mutex + Condition) ------------------- *)

module Work_queue = struct
  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    items : 'a Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      items = Queue.create ();
      closed = false;
    }

  let push t x =
    Mutex.lock t.mutex;
    Queue.push x t.items;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  (* Blocks until an item is available or the queue is closed and
     drained; [None] means "no more work, ever". *)
  let pop t =
    Mutex.lock t.mutex;
    let rec wait () =
      match Queue.take_opt t.items with
      | Some x ->
          Mutex.unlock t.mutex;
          Some x
      | None ->
          if t.closed then begin
            Mutex.unlock t.mutex;
            None
          end
          else begin
            Condition.wait t.nonempty t.mutex;
            wait ()
          end
    in
    wait ()
end

(* --- execution --------------------------------------------------------- *)

(* One attempt at a task. Without a deadline the task runs inline on
   the calling (worker) domain, exactly as before. With [timeout_s] the
   task body runs on a freshly spawned domain while the worker polls an
   Atomic completion slot against the deadline: OCaml domains cannot be
   killed, so on timeout the runaway domain is *abandoned* — its
   eventual result (if any) is discarded, and it dies with the process.
   Abandoned domains are bounded by the number of timed-out attempts,
   which is what keeps a hung task from poisoning the sweep: the worker
   moves on immediately and the hang is recorded, not inherited. *)
let run_attempt ~timeout_s task =
  (* Each attempt runs under its own observability collector, so the
     snapshot covers exactly the ambient instances the task created —
     on whichever domain the body happens to execute. *)
  let body () =
    Taq_obs.Obs.collecting (fun () ->
        match Task.run task with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e))
  in
  match timeout_s with
  | None ->
      let value, snap = body () in
      (value, snap, false)
  | Some limit ->
      let slot = Atomic.make None in
      let d = Domain.spawn (fun () -> Atomic.set slot (Some (body ()))) in
      let deadline = Unix.gettimeofday () +. limit in
      (* Exponential poll: start fine-grained so short tasks return
         promptly, back off toward [max_poll_s] so a long deadline does
         not spin the worker at 500 Hz for its whole duration. *)
      let max_poll_s = 0.02 in
      let rec wait poll_s =
        match Atomic.get slot with
        | Some (value, snap) ->
            Domain.join d;
            (value, snap, false)
        | None ->
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining <= 0.0 then
              ( Error (Printf.sprintf "timed out after %gs" limit),
                Taq_obs.Obs.empty_snapshot,
                true )
            else begin
              Unix.sleepf (Float.min poll_s remaining);
              wait (Float.min max_poll_s (poll_s *. 2.0))
            end
      in
      wait 0.0005

(* Bounded retry with capped exponential backoff: a failed or timed-out
   attempt is retried up to [retries] times, sleeping
   [min backoff_cap_s (backoff_s · 2^(attempt-1))] between attempts —
   the cap keeps a large retry budget from sleeping for minutes — after
   which the task is quarantined: recorded as [Error], never retried
   again. *)
let exec ?timeout_s ?(retries = 0) ?(backoff_s = 0.05) ?(backoff_cap_s = 2.0)
    task =
  let t0 = Unix.gettimeofday () in
  let rec go attempt =
    let value, snap, timed_out = run_attempt ~timeout_s task in
    match value with
    | Ok _ -> (value, snap, timed_out, attempt)
    | Error _ when attempt > retries -> (value, snap, timed_out, attempt)
    | Error _ ->
        Unix.sleepf
          (Float.min backoff_cap_s
             (backoff_s *. (2.0 ** float_of_int (attempt - 1))));
        go (attempt + 1)
  in
  (* Only the final attempt's snapshot is kept: retried attempts were
     discarded wholesale, and keeping their counters would make totals
     depend on how often this machine happened to fail. *)
  let value, obs, timed_out, attempts = go 1 in
  {
    key = Task.key task;
    value;
    elapsed_s = Unix.gettimeofday () -. t0;
    attempts;
    timed_out;
    obs;
  }

(* A task the pool never executed: either the run was cancelled before
   its turn, or the worker holding it died with the respawn budget
   exhausted. [attempts = 0] distinguishes both from executed tasks. *)
let unexecuted_result key msg =
  {
    key;
    value = Error msg;
    elapsed_s = 0.0;
    attempts = 0;
    timed_out = false;
    obs = Taq_obs.Obs.empty_snapshot;
  }

let run ?(jobs = 1) ?timeout_s ?retries ?backoff_s ?backoff_cap_s
    ?max_respawns ?on_start ?on_done tasks =
  Task.ensure_distinct tasks;
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let results : 'a result option array = Array.make n None in
  let progress_mutex = Mutex.create () in
  let finished = ref 0 in
  let note i r =
    (* Called from worker domains: protect the results array and the
       progress callback with one mutex so callbacks never interleave.
       The unlock is in a [finally]: a raising [on_done] must not
       leave the mutex held, or it would deadlock every other worker —
       it kills this worker instead, and supervision respawns it. *)
    Mutex.lock progress_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock progress_mutex)
      (fun () ->
        results.(i) <- Some r;
        incr finished;
        match on_done with
        | Some f -> f ~completed:!finished ~total:n r
        | None -> ())
  in
  let exec1 task = exec ?timeout_s ?retries ?backoff_s ?backoff_cap_s task in
  let start1 i =
    if Atomic.get cancel_flag then
      note i (unexecuted_result (Task.key tasks.(i)) cancelled_message)
    else begin
      (match on_start with
      | Some f -> f (Task.key tasks.(i))
      | None -> ());
      note i (exec1 tasks.(i))
    end
  in
  (* Worker deaths and respawns are infrastructure events, not task
     outcomes; they surface as obs counters (and stderr warnings). *)
  let obs = Taq_obs.Obs.ambient () in
  let deaths = ref 0 and respawned = ref 0 and lost = ref 0 in
  if jobs <= 1 || n <= 1 then
    (* Degraded mode: strictly sequential, in-process, no domains
       (except timeout watchdogs, when requested). A raising [on_done]
       propagates to the caller here — there is no worker to die in
       its place. *)
    Array.iteri (fun i _ -> start1 i) tasks
  else begin
    let queue = Work_queue.create () in
    let worker () =
      let rec loop () =
        match Work_queue.pop queue with
        | None -> ()
        | Some i ->
            start1 i;
            loop ()
      in
      loop ()
    in
    let workers = Stdlib.min jobs n in
    let respawn_budget =
      match max_respawns with Some m -> Stdlib.max 0 m | None -> workers
    in
    let domains = List.init workers (fun _ -> Domain.spawn worker) in
    Array.iteri (fun i _ -> Work_queue.push queue i) tasks;
    Work_queue.close queue;
    (* Supervision: joining a worker that died of an escaped exception
       (a raising [on_done], infrastructure failure) re-raises it here.
       The task it held is lost — it was popped, and cannot safely be
       re-queued without risking double execution — but the rest of the
       queue must still drain, so the worker is respawned up to the
       budget instead of silently shrinking the pool. *)
    let unfinished () =
      Mutex.lock progress_mutex;
      let u = !finished < n in
      Mutex.unlock progress_mutex;
      u
    in
    let rec supervise d =
      match Domain.join d with
      | () -> ()
      | exception e ->
          incr deaths;
          Printf.eprintf "taq pool: worker died unexpectedly: %s\n%!"
            (Printexc.to_string e);
          if unfinished () && !respawned < respawn_budget then begin
            incr respawned;
            supervise (Domain.spawn worker)
          end
    in
    List.iter supervise domains
  end;
  let results =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some r -> r
           | None ->
               (* Never noted: cancelled before its turn, or its worker
                  died after popping it with no respawn budget left. *)
               incr lost;
               unexecuted_result (Task.key tasks.(i))
                 (if Atomic.get cancel_flag then cancelled_message
                  else "lost: worker died before completing this task"))
         results)
  in
  if !deaths > 0 then Taq_obs.Obs.labeled obs "pool.worker_deaths" !deaths;
  if !respawned > 0 then
    Taq_obs.Obs.labeled obs "pool.workers_respawned" !respawned;
  let really_lost =
    List.length
      (List.filter
         (fun r -> r.attempts = 0 && r.value = Error cancelled_message)
         results)
  in
  if !lost - really_lost > 0 then
    Taq_obs.Obs.labeled obs "pool.tasks_lost" (!lost - really_lost);
  results

let value_exn r =
  match r.value with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "task %s failed: %s" r.key msg)

let cancelled r = r.attempts = 0 && r.value = Error cancelled_message

let status r =
  match (r.value, r.timed_out) with
  | Ok _, _ when r.attempts > 1 ->
      Printf.sprintf "ok (retried x%d)" (r.attempts - 1)
  | Ok _, _ -> "ok"
  | Error _, true ->
      if r.attempts > 1 then
        Printf.sprintf "timeout (%d attempts)" r.attempts
      else "timeout"
  | Error msg, false ->
      if r.attempts = 0 then msg (* "cancelled" / "lost: ..." *)
      else if r.attempts > 1 then
        Printf.sprintf "error (%d attempts): %s" r.attempts msg
      else "error: " ^ msg
