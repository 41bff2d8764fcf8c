(* Host time from the monotonic clock: an unboxed, allocation-free
   nanosecond read, so timing the disc on every packet does not itself
   allocate. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns *. 1e-9

let since t0 = seconds (now_ns () - t0)

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, since t0)
