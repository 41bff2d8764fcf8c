type span = { id : int; name : string; parent : int; start : int; stop : int }

type t = {
  origin : int;
  mutable next_id : int;
  mutable open_ : int list;  (* innermost first *)
  mutable closed : span list;
}

let create () =
  { origin = Clock.now_ns (); next_id = 0; open_ = []; closed = [] }

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = Clock.now_ns () - t.origin in
  Fun.protect
    ~finally:(fun () ->
      let stop = Clock.now_ns () - t.origin in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; parent; start; stop } :: t.closed)
    f

let count t = List.length t.closed

let to_json t =
  let spans = List.sort (fun a b -> compare a.id b.id) t.closed in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0 in
      Hashtbl.replace child_ns s.parent (prev + (s.stop - s.start)))
    spans;
  let line s =
    let dur = s.stop - s.start in
    let children = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
    Printf.sprintf
      {|{"id":%d,"name":%S,"parent":%d,"start_s":%.9f,"end_s":%.9f,"self_s":%.9f}|}
      s.id s.name s.parent (Clock.seconds s.start) (Clock.seconds s.stop)
      (Clock.seconds (dur - children))
  in
  "[\n" ^ String.concat ",\n" (List.map line spans) ^ "\n]\n"
