module Task = Taq_harness.Task
module Capture = Taq_harness.Capture
module Plan = Taq_fault.Plan
module Scenarios = Taq_fault.Scenarios
module Out = Taq_util.Out

type setting = {
  rtt : float;
  duration : float;
  buffer_rtts : float;
  faults : Plan.t option;
  guard : int option;
  resil : Taq_resil.Policy.params option;
}

type _ point =
  | Classic : {
      queue : string;
      capacity : float;
      fair_share : float;
      rep : int;
      setting : setting;
    }
      -> string point
  | Cell : {
      disc : string;
      tcp : string;
      workload : string;
      fault : string;
      guard : int option;
    }
      -> string point
  | Drill : {
      scenario : Scenarios.t;
      queue : string;
      resil : Taq_resil.Policy.params option;
    }
      -> Fault_drill.outcome point

let buffer_pkts s ~capacity =
  Common.buffer_for_rtts ~capacity_bps:capacity ~rtt:s.rtt ~rtts:s.buffer_rtts

let guard_suffix = function
  | Some cap -> Printf.sprintf "/guard=%d" cap
  | None -> ""

let key : type a. a point -> string = function
  | Classic { queue; capacity; fair_share; rep; setting = s } ->
      let faults =
        match s.faults with
        | Some plan when not (Plan.is_empty plan) ->
            "/faults=" ^ Plan.to_string plan
        | Some _ | None -> ""
      in
      (* Monitored points print extra resilience lines, so the
         parameters join the key. *)
      let resil =
        match s.resil with
        | Some p -> "/resil=" ^ Taq_resil.Policy.params_to_string p
        | None -> ""
      in
      Printf.sprintf
        "sweep/v1/queue=%s/cap=%.0f/fs=%.0f/rtt=%g/dur=%g/buf=%g/rep=%d%s%s%s"
        queue capacity fair_share s.rtt s.duration s.buffer_rtts rep faults
        (guard_suffix s.guard) resil
  | Cell { disc; tcp; workload; fault; guard } ->
      (* fault=none keys stay bare, so the fault axis never reseeds (or
         un-caches) the pre-axis matrix cells. *)
      Printf.sprintf "matrix/v1/disc=%s/tcp=%s/wl=%s%s%s" disc tcp workload
        (if fault = "none" then "" else "/fault=" ^ fault)
        (guard_suffix guard)
  | Drill { scenario; queue; resil = _ } ->
      Printf.sprintf "faults/v1/%s/queue=%s" scenario.Scenarios.name queue

(* One classic point: an independent long-flow contention run whose
   report goes through the Out sink. *)
let run_classic ~queue ~capacity ~fair_share ~rep s ~seed =
  let buffer_pkts = buffer_pkts s ~capacity in
  let q =
    Common.queue_of_disc ?guard_cap:s.guard ~capacity_bps:capacity ~buffer_pkts
      queue
  in
  let flows =
    Common.flows_for_fair_share ~capacity_bps:capacity
      ~fair_share_bps:fair_share
  in
  let env =
    Common.make_env ?faults:s.faults ?resil:s.resil ~queue:q
      ~capacity_bps:capacity ~buffer_pkts ~seed ()
  in
  let ids =
    Common.spawn_long_flows env ~n:flows ~rtt:s.rtt ~rtt_jitter:0.1 ()
  in
  Common.run env ~until:s.duration;
  (* [backend=packet] keeps the report in the format cached results
     were written in. *)
  Out.printf
    "queue=%s backend=packet capacity=%.0f fair_share=%.0f flows=%d rep=%d \
     seed=%d\n"
    (Common.queue_name q) capacity fair_share flows rep seed;
  Out.printf
    "  jain_short=%.3f jain_long=%.3f utilization=%.3f loss_rate=%.4f\n"
    (Taq_metrics.Slicer.mean_jain env.Common.slicer ~flows:ids ~first:1 ())
    (Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids)
    (Common.utilization env)
    (Common.measured_loss_rate env);
  Option.iter
    (List.iter (fun row ->
         Out.printf "  %s\n" (Taq_resil.Monitor.row_line row)))
    (Common.resil_rows env)

let task : type a. a point -> a Task.t =
 fun p ->
  Task.make ~key:(key p) (fun ~seed : a ->
      match p with
      | Classic { queue; capacity; fair_share; rep; setting } ->
          Capture.text (fun () ->
              run_classic ~queue ~capacity ~fair_share ~rep setting ~seed)
      | Cell { disc; tcp; workload; fault; guard } ->
          Capture.text (fun () ->
              Matrix.run_cell ~disc ~tcp ~workload ~fault ?guard_cap:guard ~seed
                ())
      | Drill { scenario; queue; resil } ->
          Fault_drill.run ~scenario:scenario.Scenarios.name
            ~plan:scenario.Scenarios.plan ~queue ?resil ~seed ())

let grid setting ~queues ~capacities ~fair_shares ~reps =
  let queues = if queues = [] then [ "droptail"; "taq" ] else queues in
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun capacity ->
          List.concat_map
            (fun fair_share ->
              List.init reps (fun rep ->
                  Classic { queue; capacity; fair_share; rep; setting }))
            fair_shares)
        capacities)
    queues

let matrix ~discs ~tcps ~workloads ~faults ~guard =
  let discs = if discs = [] then Matrix.disc_names else discs in
  let cell disc tcp workload fault =
    Result.map
      (fun () -> Cell { disc; tcp; workload; fault; guard })
      (Matrix.validate ~fault ~disc ~tcp ~workload ())
  in
  let cells =
    List.concat_map
      (fun disc ->
        List.concat_map
          (fun tcp ->
            List.concat_map
              (fun workload -> List.map (cell disc tcp workload) faults)
              workloads)
          tcps)
      discs
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) cells with
  | Some msg -> Error msg
  | None -> Ok (List.map Result.get_ok cells)

let drills ~resil ~scenarios ~queues =
  if List.mem "taq+ac" queues then
    Error
      "faults --queues: taq+ac is not a drill queue — the drill takes TAQ's \
       admission setting from the plan (flood plans turn it on); use taq"
  else
    Ok
      (List.concat_map
         (fun (s : Scenarios.t) ->
           let queues =
             if Plan.middlebox_only s.Scenarios.plan then
               List.filter (( = ) "taq") queues
             else queues
           in
           List.map
             (fun queue -> Drill { scenario = s; queue; resil })
             queues)
         scenarios)

let matrix_report outputs =
  let report =
    Taq_util.Table.create
      ~columns:
        [ "disc"; "tcp"; "workload"; "fault"; "jain"; "drop_rate"; "util";
          "completed"; "rec_jain"; "rec_drop"; "rec_occ" ]
  in
  List.iter
    (fun output ->
      (* One cell per output, so its resil lines belong to the cell
         parsed from the same text. *)
      let resil = Matrix.resil_of_output output in
      let recover_of metric =
        match
          List.find_opt
            (fun kv -> List.assoc_opt "metric" kv = Some metric)
            resil
        with
        | Some kv -> Option.value (List.assoc_opt "recover_s" kv) ~default:"?"
        | None -> "-"
      in
      List.iter
        (fun cell ->
          let v k = Option.value (List.assoc_opt k cell) ~default:"?" in
          Taq_util.Table.add_row report
            [
              v "disc"; v "tcp"; v "wl"; v "fault"; v "jain"; v "drop_rate";
              v "util"; v "completed"; recover_of "jain";
              recover_of "drop_rate"; recover_of "occupancy";
            ])
        (Matrix.cells_of_output output))
    outputs;
  report
