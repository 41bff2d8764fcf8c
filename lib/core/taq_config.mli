(** TAQ middlebox configuration.

    Defaults follow the paper: pthresh = 0.1 (the model's tipping
    point), flows treated as over-penalized beyond 2 drops in an epoch,
    a capacity-limited recovery queue, and a capped NewFlow queue used
    for admission control. The fair share is always the equal split of
    [capacity_bps] among active flows (§4.2's fair-queuing model).
    Only the values some caller varies are fields; every other
    parameter is a constant of the one module that reads it
    ({!Admission}, {!Overload}, {!Epoch_estimator}, {!Flow_tracker})
    or one of the values after {!t}. *)

type epoch_source =
  | Estimated
      (** Middlebox-side epoch estimation (Section 3.3): the initial
          estimate is the SYN→first-data gap, revised by observing
          packet bursts at epoch starts (constants in
          {!Epoch_estimator}). *)
  | Oracle of float
      (** A fixed, externally known RTT — the ablation switch; not what
          a deployed middlebox has. *)

type t = {
  capacity_pkts : int;  (** total buffer across all TAQ queues *)
  capacity_bps : float;  (** bottleneck rate (known to the operator,
                             §4.4: TAQ nodes are aware of the
                             available bandwidth) *)
  recovery_share : float;  (** cap on the recovery queue's share of the
                               link, preventing the all-retransmission
                               collapse of §3.2 *)
  overpenalize_drops : int;  (** drops within an epoch beyond which a
                                 flow moves to the OverPenalized queue
                                 (§4.2: "more than 2") *)
  epoch_source : epoch_source;
  admission : float option;  (** [Some pthresh] enables admission
                                 control: new pools are refused while
                                 the loss rate is above pthresh (the
                                 model's tipping point, 0.1). [None]
                                 disables it. *)
  max_tracked_flows : int;  (** hard cap on [Flow_tracker] entries;
                                enforced by idle-first/LRU eviction at
                                insert time *)
  guard : bool;  (** the overload guard ({!Overload}); off, the tracker
                     cap still holds *)
}

val newflow_cap : t -> int
(** Max packets queued in the NewFlow queue: a quarter of
    [capacity_pkts], at least 2. *)

val slowstart_epochs : int
(** Epochs during which a flow is scheduled from the NewFlow queue
    (3). *)

val tick_interval : float
(** Housekeeping period for rolling epochs of silent flows (0.05 s). *)

val default : capacity_pkts:int -> capacity_bps:float -> t
(** No admission control; estimated epochs; recovery share 0.25;
    max_tracked_flows 65536; no guard. *)

val with_admission : capacity_pkts:int -> capacity_bps:float -> t
(** {!default} plus admission control at pthresh 0.1. *)

val with_guard : max_tracked_flows:int -> t -> t
(** Enable the overload guard with a (validated) tracker cap.
    @raise Invalid_argument on a cap < 1. *)
