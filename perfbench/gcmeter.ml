let minor_heap_words = 8 * 1024 * 1024
let space_overhead = 120

let configure () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words; space_overhead }

let describe () =
  let c = Gc.get () in
  Printf.sprintf
    "gc: minor_heap_size=%d words space_overhead=%d max_overhead=%d \
     stack_limit=%d allocation_policy=%d"
    c.Gc.minor_heap_size c.Gc.space_overhead c.Gc.max_overhead
    c.Gc.stack_limit c.Gc.allocation_policy

type reading = {
  minor : float;
  promoted : float;
  major : float;
  minor_collections : int;
  major_collections : int;
}

let read () =
  let _, promoted, major = Gc.counters () in
  let q = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    promoted;
    major;
    minor_collections = q.Gc.minor_collections;
    major_collections = q.Gc.major_collections;
  }

let diff a b =
  {
    minor = a.minor -. b.minor;
    promoted = a.promoted -. b.promoted;
    major = a.major -. b.major;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* 1000 pairs consed onto a list: a 3-word tuple and a 3-word cons cell
   each, all in the minor heap. *)
let known_blocks = 1000
let known_words = float_of_int (known_blocks * 6)
let tolerance = 64.0

let self_test () =
  let before = Gc.minor_words () in
  let l = ref [] in
  for i = 1 to known_blocks do
    l := (i, i + 1) :: !l
  done;
  ignore (Sys.opaque_identity !l);
  let delta = Gc.minor_words () -. before in
  if Float.abs (delta -. known_words) <= tolerance then Ok delta
  else
    Error
      (Printf.sprintf
         "GC self-test: allocated %.0f words but Gc.minor_words moved by %.0f"
         known_words delta)
