type 'a t = {
  key : string;
  run : seed:int -> 'a;
}

let make ~key run = { key; run }

let key t = t.key

let ensure_distinct tasks =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.key then
        invalid_arg (Printf.sprintf "duplicate task key %S" t.key);
      Hashtbl.replace seen t.key ())
    tasks

(* FNV-1a over the key bytes folds the string into 64 bits; one
   splitmix64 step (via Prng.bits64) then gives the final avalanche.
   The derived seed depends only on the key, never on scheduling order
   or on how many tasks ran before this one — that is what makes sweep
   results reproducible under any jobs count. *)
let seed_of_key key =
  let fnv_offset = 0xCBF29CE484222325L in
  let fnv_prime = 0x100000001B3L in
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    key;
  let prng = Taq_util.Prng.create ~seed:(Int64.to_int !h) in
  (* Drop to 62 bits so the seed is a non-negative OCaml int. *)
  Int64.to_int (Int64.shift_right_logical (Taq_util.Prng.bits64 prng) 2)

let run t = t.run ~seed:(seed_of_key t.key)
