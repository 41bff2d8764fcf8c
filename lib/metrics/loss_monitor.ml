module Packet = Taq_net.Packet
module Link = Taq_net.Link

type t = {
  data_only : bool;
  mutable drops : int;
  mutable accepted : int;
}

let counts_kind t (p : Packet.t) =
  (not t.data_only)
  ||
  match p.kind with
  | Packet.Data -> true
  | Packet.Syn | Packet.Syn_ack | Packet.Ack | Packet.Fin -> false

let attach ?(data_only = true) link =
  let t = { data_only; drops = 0; accepted = 0 } in
  Link.on_drop link (fun p -> if counts_kind t p then t.drops <- t.drops + 1);
  Link.on_enqueue link (fun p ->
      if counts_kind t p then t.accepted <- t.accepted + 1);
  t

let arrivals t = t.drops + t.accepted

let overall_rate t =
  let n = arrivals t in
  if n = 0 then 0.0 else float_of_int t.drops /. float_of_int n

let drops t = t.drops
