module Obs = Taq_obs.Obs

type 'a codec = {
  encode : 'a -> string;
  decode : key:string -> string -> 'a option;
}

let identity = { encode = Fun.id; decode = (fun ~key:_ s -> Some s) }

type 'a outcome =
  | Restored of 'a
  | Hit of 'a
  | Computed of 'a
  | Failed of string
  | Cancelled

type 'a result = {
  key : string;
  outcome : 'a outcome;
  obs : Obs.snapshot;
  elapsed_s : float;
  status : string;
}

let payload_entry key = Cache.key ~parts:[ key ]

let obs_entry key = Cache.key ~parts:[ key; "obs" ]

let digest payload = Digest.to_hex (Digest.string payload)

(* A stored result with its payload digest, when it is loadable: the
   payload (matching the journal's [digest] when one testifies to it)
   decodes, and with counters on the obs snapshot parses. *)
let load cache codec ?digest:expected key =
  let ( let* ) = Option.bind in
  let* payload = Cache.find cache ~key:(payload_entry key) in
  let d = digest payload in
  let* v =
    if expected <> None && expected <> Some d then None
    else codec.decode ~key payload
  in
  if not (Obs.policy_enabled ()) then Some (v, Obs.empty_snapshot, d)
  else
    let* s = Cache.find cache ~key:(obs_entry key) in
    let* snap = Result.to_option (Obs.snapshot_of_string s) in
    Some (v, snap, d)

(* Persist a computed task, then journal its Finish record. *)
let persist cache journal codec key v snap =
  let payload = codec.encode v in
  Cache.store cache ~key:(payload_entry key) payload;
  if Obs.policy_enabled () then
    Cache.store cache ~key:(obs_entry key) (Obs.snapshot_to_string snap);
  Option.iter
    (fun j ->
      Journal.append j (Journal.Finish { key; digest = digest payload }))
    journal

let of_pool (r : 'a Pool.result) =
  let outcome =
    match r.Pool.value with
    | Ok v -> Computed v
    | Error _ when Pool.cancelled r -> Cancelled
    | Error msg -> Failed msg
  in
  {
    key = r.Pool.key;
    outcome;
    obs = r.Pool.obs;
    elapsed_s = r.Pool.elapsed_s;
    status = Pool.status r;
  }

let run ?jobs ?timeout_s ?retries ?cache ?journal ?(resume = false) ?on_done
    codec tasks =
  Task.ensure_distinct tasks;
  (* Every task's result, keyed: restored and hit ones first, executed
     ones once the pool returns. *)
  let results = Hashtbl.create 64 in
  let serve key status outcome obs =
    Hashtbl.replace results key { key; outcome; obs; elapsed_s = 0.0; status }
  in
  let journal =
    match cache with
    | None -> None
    | Some cache ->
        let finished =
          match journal with
          | Some path when resume -> Journal.finished (Journal.replay ~path)
          | Some _ | None -> Hashtbl.create 1
        in
        let hits =
          List.filter_map
            (fun t ->
              let key = Task.key t in
              match
                Option.bind (Hashtbl.find_opt finished key) (fun digest ->
                    load cache codec ~digest key)
              with
              | Some (v, obs, _) ->
                  serve key "restored" (Restored v) obs;
                  None
              | None ->
                  Option.map
                    (fun (v, obs, digest) ->
                      serve key "hit" (Hit v) obs;
                      Journal.Finish { key; digest })
                    (load cache codec key))
            tasks
        in
        (* A hit is on disk, so the journal may testify to it: a later
           resume restores it like a task computed in this run. *)
        Option.map
          (fun path ->
            let j = Journal.open_append ~path ~fresh:(not resume) () in
            List.iter (Journal.append j) hits;
            j)
          journal
  in
  let on_start key =
    match journal with
    | Some j -> Journal.append j (Journal.Start key)
    | None -> ()
  in
  (* Persist as each task finishes, not after the pool drains: a kill
     one task later loses nothing already completed. *)
  let on_done ~completed ~total (r : 'a Pool.result) =
    (match (r.Pool.value, cache) with
    | Ok v, Some cache ->
        persist cache journal codec r.Pool.key v r.Pool.obs
    | _ -> ());
    Option.iter (fun f -> f ~completed ~total r) on_done
  in
  let todo =
    List.filter (fun t -> not (Hashtbl.mem results (Task.key t))) tasks
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close journal)
    (fun () ->
      Pool.run ?jobs ?timeout_s ?retries ~on_start ~on_done todo)
  |> List.iter (fun (r : 'a Pool.result) ->
         Hashtbl.replace results r.Pool.key (of_pool r));
  List.map (fun t -> Hashtbl.find results (Task.key t)) tasks
