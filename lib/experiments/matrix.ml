module Slicer = Taq_metrics.Slicer
module Tcp_config = Taq_tcp.Tcp_config
module Out = Taq_util.Out

(* Quick-scale cell geometry, mirroring the golden-test scenarios:
   ~100 packets/s of service so 30 simulated seconds exercise slow
   start, steady state and plenty of drops in well under a wall
   second. *)
let capacity_bps = 400e3
let buffer_pkts = 25
let rtt = 0.1
let horizon = 30.0
let n_long = 12
let n_elephants = 4
let n_mice = 24
let mouse_segments = 8
let mouse_start i = 3.0 +. (0.9 *. float_of_int i)

let disc_names = List.filter (fun d -> d <> "taq+ac") Common.disc_names

let workload_names = [ "longmix"; "mice" ]

let tcp_names = Tcp_config.profile_names

(* The fault axis: named, fixed scenarios sized for the quick-scale
   cell (fault onset well into steady state, cleared with most of the
   horizon left so recovery is measurable). The scenario name is
   folded into the task key, so each (cell, fault) pair draws its own
   seed and the fault=none keys stay byte-identical to the pre-axis
   matrix. *)
let fault_specs =
  [
    ("none", "");
    ("flap", "flap@8+3");
    ("flood", "flood@8+6:rate=300,kind=syn");
    ("brownout", "brownout@8+6:frac=0.5");
    ("jitter", "jitter@8+6:ms=40");
  ]

let fault_names = List.map fst fault_specs
let default_fault_axis = [ "none"; "flap"; "flood" ]

let plan_of_fault name =
  match List.assoc_opt name fault_specs with
  | None ->
      Error
        (Printf.sprintf "unknown matrix fault %S (known: %s)" name
           (String.concat ", " fault_names))
  | Some spec -> (
      match Taq_fault.Plan.of_string spec with
      | Ok plan -> Ok plan
      | Error msg -> Error (Printf.sprintf "matrix fault %s: %s" name msg))

let validate ?(fault = "none") ~disc ~tcp ~workload () =
  if not (List.mem disc Common.disc_names) then
    Error (Printf.sprintf "unknown matrix disc %S" disc)
  else if Tcp_config.of_name tcp = None then
    Error
      (Printf.sprintf "unknown tcp profile %S (known: %s)" tcp
         (String.concat ", " tcp_names))
  else if not (List.mem workload workload_names) then
    Error
      (Printf.sprintf "unknown workload %S (known: %s)" workload
         (String.concat ", " workload_names))
  else match plan_of_fault fault with Ok _ -> Ok () | Error e -> Error e

let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if sumsq <= 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sumsq)
  end

let cell_line ~disc ~tcp ~workload ~fault ~jain ~drop_rate ~util ~completed =
  Printf.sprintf
    "cell disc=%s tcp=%s wl=%s fault=%s jain=%.6f drop_rate=%.6f util=%.6f \
     completed=%d"
    disc tcp workload fault jain drop_rate util completed

let run_longmix env ~tcp =
  let flows = Common.spawn_long_flows env ~tcp ~n:n_long ~rtt ~rtt_jitter:0.1 () in
  Common.run env ~until:horizon;
  let j = Slicer.long_term_jain env.Common.slicer ~flows in
  (j, n_long)

let run_mice env ~tcp =
  ignore
    (Common.spawn_long_flows env ~tcp ~n:n_elephants ~rtt ~rtt_jitter:0.1 ());
  (* Mice keep the SYN handshake on (TAQ's new-flow logic keys off
     connection starts, as in the short-flow figure); elephants follow
     the long-flow convention of starting open. *)
  let mouse_tcp = { tcp with Tcp_config.use_syn = true } in
  let finished = Array.make n_mice nan in
  for i = 0 to n_mice - 1 do
    ignore
      (Common.spawn_finite_flow env ~tcp:mouse_tcp ~segments:mouse_segments
         ~rtt ~at:(mouse_start i)
         ~on_complete:(fun time -> finished.(i) <- time)
         ())
  done;
  Common.run env ~until:horizon;
  (* The mice-vs-elephants index: Jain over completion *rates*, so a
     mouse stuck behind an elephant's standing queue (or in timeout
     backoff) drags the index down even though it moved the same
     bytes. A mouse that never finished is scored as if it completed
     at the horizon. *)
  let rates =
    Array.init n_mice (fun i ->
        let fct =
          if Float.is_nan finished.(i) then horizon -. mouse_start i
          else finished.(i) -. mouse_start i
        in
        1.0 /. Float.max fct 1e-9)
  in
  let completed = ref 0 in
  Array.iter (fun t -> if not (Float.is_nan t) then incr completed) finished;
  (jain rates, !completed)

let run_cell ~disc ~tcp ~workload ?(fault = "none") ?guard_cap ~seed () =
  (match validate ~fault ~disc ~tcp ~workload () with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let plan =
    match plan_of_fault fault with Ok p -> p | Error _ -> assert false
  in
  (* Flood cells put TAQ under tracker churn; mirror the fault drill's
     overload-guard configuration so the cell exercises the guard arc
     instead of unbounded state growth. The cap is implied by the
     fault name, so it needs no extra key component. *)
  let guard_cap =
    match (guard_cap, fault) with
    | (Some _ as g), _ -> g
    | None, "flood" -> Some Fault_drill.flood_guard_cap
    | None, _ -> None
  in
  let queue = Common.queue_of_disc ?guard_cap ~capacity_bps ~buffer_pkts disc in
  let profile =
    match Tcp_config.of_name tcp with Some t -> t | None -> assert false
  in
  let elephant_tcp = { profile with Tcp_config.use_syn = false } in
  (* Explicit faults + resilience parameters: the matrix axis owns the
     plan (the ambient --faults plan must not leak into cells) and
     every cell is monitored with the canonical default SLO parameters
     so recovery columns mean the same thing in every report. *)
  let env =
    Common.make_env ~faults:plan ~resil:Taq_resil.Policy.default ~queue
      ~capacity_bps ~buffer_pkts ~slice:1.0 ~seed ()
  in
  let j, completed =
    match workload with
    | "longmix" -> run_longmix env ~tcp:elephant_tcp
    | "mice" -> run_mice env ~tcp:elephant_tcp
    | _ -> assert false
  in
  Out.printf "%s\n"
    (cell_line ~disc ~tcp ~workload ~fault ~jain:j
       ~drop_rate:(Common.measured_loss_rate env)
       ~util:(Common.utilization env) ~completed);
  match Common.resil_rows env with
  | None -> ()
  | Some rows ->
      let prefix =
        Printf.sprintf "resil disc=%s tcp=%s wl=%s fault=%s " disc tcp workload
          fault
      in
      List.iter
        (fun row -> Out.printf "%s\n" (Taq_resil.Monitor.row_line ~prefix row))
        rows

let kv_lines ~tag text =
  let prefix = tag ^ " " in
  let plen = String.length prefix in
  let lines = String.split_on_char '\n' text in
  List.filter_map
    (fun line ->
      if String.length line >= plen && String.sub line 0 plen = prefix then
        Some
          (String.split_on_char ' ' line
          |> List.filter_map (fun field ->
                 match String.index_opt field '=' with
                 | None -> None
                 | Some i ->
                     Some
                       ( String.sub field 0 i,
                         String.sub field (i + 1)
                           (String.length field - i - 1) )))
      else None)
    lines

let cells_of_output text = kv_lines ~tag:"cell" text
let resil_of_output text = kv_lines ~tag:"resil" text
