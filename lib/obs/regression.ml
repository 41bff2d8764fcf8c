(* BENCH.json reading/writing and the bench-regression gate.

   The gate's contract: deterministic counters must match the baseline
   exactly (any drift is a behavioural change someone must explain —
   either a bug or a baseline regen); wall-clock is only checked when
   the caller supplies a tolerance, because seconds are machine noise
   in CI. *)

type target = {
  name : string;
  seconds : float;
  events_per_sec : float;  (* throughput; noisy like seconds *)
  counters : (string * int) list;  (* sorted by name *)
  gauges : (string * int) list;  (* sorted by name *)
  gc_minor_words : float;
}

type bench = {
  scale : string;  (* "quick" | "full" *)
  jobs : int;
  targets : target list;
}

let by_name (a, _) (b, _) = String.compare a b

let make_target ~name ~seconds ~(snapshot : Obs.snapshot) =
  let events =
    Obs.counter_value snapshot (Obs.counter_name Obs.Events_executed)
  in
  {
    name;
    seconds;
    events_per_sec =
      (if seconds > 0.0 then float_of_int events /. seconds else 0.0);
    counters = List.sort by_name snapshot.Obs.counters;
    gauges = List.sort by_name snapshot.Obs.gauges;
    gc_minor_words = snapshot.Obs.gc_minor_words;
  }

(* --- JSON ----------------------------------------------------------------- *)

let assoc_to_json kvs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) kvs)

let target_to_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("seconds", Json.Num t.seconds);
      ("events_per_sec", Json.Num t.events_per_sec);
      ("counters", assoc_to_json t.counters);
      ("gauges", assoc_to_json t.gauges);
      ("gc_minor_words", Json.Num t.gc_minor_words);
    ]

(* Targets serialize sorted by name (counters/gauges already are), so
   a regenerated BASELINE.json diffs cleanly against the committed one
   regardless of registry run order. *)
let to_json b =
  let sorted =
    List.sort (fun a b -> String.compare a.name b.name) b.targets
  in
  Json.Obj
    [
      ("scale", Json.Str b.scale);
      ("jobs", Json.Num (float_of_int b.jobs));
      ("targets", Json.List (List.map target_to_json sorted));
    ]

let assoc_of_json j =
  match j with
  | Some (Json.Obj kvs) ->
      let ints =
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v))
          kvs
      in
      List.sort by_name ints
  | Some _ | None -> []

let target_of_json j =
  let ( let* ) = Option.bind in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* seconds = Option.bind (Json.member "seconds" j) Json.to_float in
  let float_or_0 key =
    match Option.bind (Json.member key j) Json.to_float with
    | Some v -> v
    | None -> 0.0
  in
  Some
    {
      name;
      seconds;
      events_per_sec = float_or_0 "events_per_sec";
      counters = assoc_of_json (Json.member "counters" j);
      gauges = assoc_of_json (Json.member "gauges" j);
      gc_minor_words = float_or_0 "gc_minor_words";
    }

let of_json j =
  let ( let* ) = Option.bind in
  let* scale = Option.bind (Json.member "scale" j) Json.to_str in
  let* jobs = Option.bind (Json.member "jobs" j) Json.to_int in
  let* items = Option.bind (Json.member "targets" j) Json.to_list in
  let targets = List.filter_map target_of_json items in
  if List.length targets <> List.length items then None
  else Some { scale; jobs; targets }

let of_string s =
  match Json.of_string s with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok j -> (
      match of_json j with
      | Some b -> Ok b
      | None -> Error "not a BENCH.json document")

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | s -> (
      match of_string s with
      | Ok b -> Ok b
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let save ~path b =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json b));
      output_char oc '\n')

(* --- the gate ------------------------------------------------------------- *)

(* Walk the union of two sorted assoc lists, reporting every key whose
   values differ (a missing key counts as 0). *)
let assoc_drift ~kind base cur =
  let rec go acc base cur =
    match (base, cur) with
    | [], [] -> List.rev acc
    | (k, v) :: rest, [] ->
        go (Printf.sprintf "%s %s: %d -> missing" kind k v :: acc) rest []
    | [], (k, v) :: rest ->
        go (Printf.sprintf "%s %s: missing -> %d" kind k v :: acc) [] rest
    | (ka, va) :: ra, (kb, vb) :: rb ->
        let c = String.compare ka kb in
        if c < 0 then
          go (Printf.sprintf "%s %s: %d -> missing" kind ka va :: acc) ra cur
        else if c > 0 then
          go (Printf.sprintf "%s %s: missing -> %d" kind kb vb :: acc) base rb
        else if va <> vb then
          go (Printf.sprintf "%s %s: %d -> %d" kind ka va vb :: acc) ra rb
        else go acc ra rb
  in
  go [] base cur

let diff ?tolerance_pct ~known ~baseline ~current () =
  let failures = ref [] in
  let notes = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if baseline.scale <> current.scale then
    fail "scale mismatch: baseline is %S, current is %S (rerun with matching \
          --full/--quick or regenerate the baseline)"
      baseline.scale current.scale;
  List.iter
    (fun (b : target) ->
      match List.find_opt (fun c -> c.name = b.name) current.targets with
      | None when List.mem b.name known -> note "%s: not run, skipped" b.name
      | None ->
          fail
            "%s: no such target in this build (a stale baseline entry: \
             delete it from the baseline)"
            b.name
      | Some c ->
          let drift =
            assoc_drift ~kind:"counter" b.counters c.counters
            @ assoc_drift ~kind:"gauge" b.gauges c.gauges
          in
          List.iter (fun d -> fail "%s: %s" b.name d) drift;
          (match tolerance_pct with
          | Some pct ->
              let slack = 1.0 +. (pct /. 100.0) in
              if b.seconds > 0.0 then begin
                let limit = b.seconds *. slack in
                if c.seconds > limit then
                  fail
                    "%s: wall-clock regressed %.3fs -> %.3fs (limit %.3fs at \
                     +%g%%)"
                    b.name b.seconds c.seconds limit pct
                else
                  note "%s: %.3fs vs baseline %.3fs (within +%g%%)" b.name
                    c.seconds b.seconds pct
              end;
              (* Throughput gates downward: fewer simulated events per
                 wall-clock second is the regression. *)
              if b.events_per_sec > 0.0 then begin
                let floor_eps = b.events_per_sec /. slack in
                if c.events_per_sec < floor_eps then
                  fail
                    "%s: events/sec regressed %.0f -> %.0f (floor %.0f at \
                     -%g%%)"
                    b.name b.events_per_sec c.events_per_sec floor_eps pct
              end;
              if b.gc_minor_words > 0.0 then begin
                let limit = b.gc_minor_words *. slack in
                if c.gc_minor_words > limit then
                  fail
                    "%s: gc minor words regressed %.3e -> %.3e (limit %.3e at \
                     +%g%%)"
                    b.name b.gc_minor_words c.gc_minor_words limit pct
              end
          | None -> ());
          if drift = [] then
            note "%s: %d counter(s), %d gauge(s) match" b.name
              (List.length b.counters)
              (List.length b.gauges))
    baseline.targets;
  match List.rev !failures with
  | [] -> Ok (List.rev !notes)
  | fs -> Error fs

let compare_files ?tolerance_pct ~known ~baseline_path ~current_path () =
  match load ~path:baseline_path with
  | Error msg -> Error [ Printf.sprintf "baseline: %s" msg ]
  | Ok baseline -> (
      match load ~path:current_path with
      | Error msg -> Error [ Printf.sprintf "current: %s" msg ]
      | Ok current -> diff ?tolerance_pct ~known ~baseline ~current ())
