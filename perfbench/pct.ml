let min_beyond = 10

(* Tenths of a percent, so ranks are exact integer arithmetic. *)
let ladder_tenths = [ 999; 990; 950; 900; 750 ]

type t = { n : int; median : float; tail : (float * float) option }

(* Nearest rank (1-based) of the [p10]/1000 quantile among [n] samples. *)
let rank_tenths ~n p10 = Stdlib.max 1 (((p10 * n) + 999) / 1000)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.nearest_rank: empty";
  let k = Float.to_int (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Stdlib.min (n - 1) (Stdlib.max 0 (k - 1)))

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pct.summarize: empty";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let median =
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
  in
  let tail =
    List.find_map
      (fun p10 ->
        let k = rank_tenths ~n p10 in
        if n - k >= min_beyond then
          Some (float_of_int p10 /. 10.0, sorted.(k - 1))
        else None)
      ladder_tenths
  in
  { n; median; tail }

let to_string ~unit t =
  match t.tail with
  | Some (p, v) ->
      Printf.sprintf "median=%.6g%s p%g=%.6g%s n=%d" t.median unit p v unit t.n
  | None ->
      Printf.sprintf "median=%.6g%s n=%d (too few samples for a tail)" t.median
        unit t.n
