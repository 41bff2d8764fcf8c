(* Host-speed calibration. The machine this benchmark runs on may be
   shared: its speed swings by tens of percent over seconds to minutes.
   A fixed kernel written against the standard library only (so no
   change to the simulator can speed it up or slow it down) is timed
   before and after every repeat; host times are divided by its time
   and multiplied by its nominal time, giving seconds on a
   reference-speed host, one where the kernel takes [nominal_s].

   The kernel does the simulator's kinds of host work: it streams
   short-lived allocations through the minor heap and scans a
   hash table of mutable float records, as the flow tracker does. *)

let nominal_s = 0.015

type record = { mutable rate : float; mutable epoch : float; mutable seen : int }

let table =
  let t = Hashtbl.create 4096 in
  for k = 0 to 4095 do
    Hashtbl.replace t (k * 7919) { rate = float_of_int k; epoch = 0.1; seen = k }
  done;
  t

let kernel () =
  let acc = ref 0.0 and live = ref [] in
  for pass = 1 to 100 do
    Hashtbl.iter
      (fun _ r ->
        r.rate <- (0.9 *. r.rate) +. (0.1 *. r.epoch);
        r.seen <- r.seen + pass;
        if r.seen land 7 = 0 then acc := !acc +. r.rate)
      table;
    for i = 1 to 1_000 do
      live := (i, float_of_int i *. !acc) :: (if i land 255 = 0 then [] else !live)
    done
  done;
  ignore (Sys.opaque_identity (!acc, !live))

(* Minor words the kernel has allocated, so a caller can take them out
   of its own allocation counts. *)
let words = ref 0.0

let measure () =
  let w0 = Gc.minor_words () in
  let (), dt = Clock.time kernel in
  words := !words +. (Gc.minor_words () -. w0);
  dt

let speed ~before ~after = nominal_s /. ((before +. after) /. 2.0)
