(** Short- and long-term Jain fairness versus per-flow fair share — the
    driver behind Figure 2 (droptail), Figure 8 (TAQ) and Figure 11
    (testbed-profile comparison).

    For each (queue, bottleneck capacity, target fair share) the number
    of competing long-lived flows is set to capacity/fair-share, the
    dumbbell runs for the configured duration, and Jain fairness is
    computed over 20-second slices (short term) and over the whole run
    (long term). *)

type params = {
  queues : string list;  (** discipline names ({!Common.disc_names}) *)
  capacities_bps : float list;
  fair_shares_bps : float list;  (** per-flow targets (x-axis) *)
  rtt : float;
  rtt_jitter : float;
  duration : float;
  slice : float;
  buffer_rtts : float;  (** droptail buffer, in RTTs of delay *)
  use_syn : bool;  (** testbed profile models the handshake *)
  tcp_override : Taq_tcp.Tcp_config.t option;
      (** replaces the default NewReno stack when set (e.g. CUBIC with
          an initial window of 10) *)
  seeds : int list;  (** each point averages these independent runs *)
}

val default : params
(** The Figure 2/8 setting: capacities 200–1000 Kbps, fair shares
    2–50 Kbps, 400 ms effective RTT scale (200 ms propagation), one
    RTT of buffering. *)

val quick : params
(** Same shape, fewer points and shorter runs. *)

val testbed : params
(** The Figure 11 emulation profile: 600 Kbps and 1 Mbps only, SYN
    handshake on, both queues. *)

type row = {
  queue : string;
  capacity_bps : float;
  flows : int;
  fair_share_bps : float;
  jain_short : float;
  jain_long : float;
  utilization : float;
  loss_rate : float;
}

val run : params -> row list

val print : row list -> unit
