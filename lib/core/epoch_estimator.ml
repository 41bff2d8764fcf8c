let default_epoch = 0.2

(* The 1 s cap keeps silence periods from polluting the burst-based
   estimate: epochs are RTTs, and RTTs beyond a second are outside the
   regimes TAQ serves. Ablations show the capped estimator matches an
   RTT oracle. *)
let min_epoch = 0.02
let max_epoch = 1.0
let alpha = 0.25

type estimating = {
  ewma : Taq_util.Ewma.t;
  mutable syn_at : float;  (* nan when no SYN observed *)
  mutable burst_start : float;  (* nan before first packet *)
  mutable last_packet : float;
  mutable samples : int;
}

type t = Oracle of float | Est of estimating

let create = function
  | Taq_config.Oracle rtt -> Oracle rtt
  | Taq_config.Estimated ->
      Est
        {
          ewma = Taq_util.Ewma.create ~alpha;
          syn_at = nan;
          burst_start = nan;
          last_packet = nan;
          samples = 0;
        }

let clamp x = Float.min max_epoch (Float.max min_epoch x)

let note_syn t ~time =
  match t with Oracle _ -> () | Est e -> e.syn_at <- time

let current e =
  if Taq_util.Ewma.is_initialized e.ewma then
    clamp (Taq_util.Ewma.value e.ewma)
  else default_epoch

let note_packet t ~time =
  match t with
  | Oracle _ -> ()
  | Est e ->
      if Float.is_nan e.burst_start then begin
        (* First data packet: the SYN→data gap is the initial epoch. *)
        (if not (Float.is_nan e.syn_at) then begin
           let sample = clamp (time -. e.syn_at) in
           Taq_util.Ewma.update e.ewma sample;
           e.samples <- e.samples + 1
         end);
        e.burst_start <- time;
        e.last_packet <- time
      end
      else begin
        let cur = current e in
        (* A gap of more than half an epoch since the previous packet
           marks the start of a new burst; the spacing between burst
           starts samples the epoch. *)
        if time -. e.last_packet > 0.5 *. cur then begin
          let sample = clamp (time -. e.burst_start) in
          Taq_util.Ewma.update e.ewma sample;
          e.samples <- e.samples + 1;
          e.burst_start <- time
        end;
        e.last_packet <- time
      end

let epoch = function Oracle rtt -> rtt | Est e -> current e

let samples = function Oracle _ -> 0 | Est e -> e.samples
