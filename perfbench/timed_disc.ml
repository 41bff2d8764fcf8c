type t = {
  mutable self_ns : int;
  mutable enqueue_calls : int;
  mutable dequeue_calls : int;
}

let create () = { self_ns = 0; enqueue_calls = 0; dequeue_calls = 0 }

let wrap t (d : Taq_net.Disc.t) =
  let enqueue p =
    let t0 = Clock.now_ns () in
    let r = d.enqueue p in
    t.self_ns <- t.self_ns + (Clock.now_ns () - t0);
    t.enqueue_calls <- t.enqueue_calls + 1;
    r
  in
  let dequeue () =
    let t0 = Clock.now_ns () in
    let r = d.dequeue () in
    t.self_ns <- t.self_ns + (Clock.now_ns () - t0);
    t.dequeue_calls <- t.dequeue_calls + 1;
    r
  in
  let dequeue_drops () =
    let t0 = Clock.now_ns () in
    let r = d.dequeue_drops () in
    t.self_ns <- t.self_ns + (Clock.now_ns () - t0);
    r
  in
  { d with enqueue; dequeue; dequeue_drops }

let self_s t = Clock.seconds t.self_ns
let enqueue_calls t = t.enqueue_calls
let dequeue_calls t = t.dequeue_calls
