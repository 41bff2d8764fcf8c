(** The scanning flow tracker, retained as the differential-testing
    reference for the production [Taq_core.Flow_tracker].

    Same contract as the production tracker, with the original
    representation: [active_flow_count] walks the whole flow table on
    every call, and [tick] walks it to roll every flow's silent epochs
    and to expire idle flows. The test
    battery drives both lockstep under random interleavings and
    requires identical answers. Not used on production paths. *)

open Taq_core

type t

type classification = New_data | Retransmission

val create :
  obs:Taq_obs.Obs.t -> config:Taq_config.t -> now:(unit -> float) -> unit -> t
(** [obs] receives the
    [tracker.flows_created], [tracker.evictions] and
    [tracker.cap_evictions] labeled counters. *)

val observe_syn : t -> flow:int -> unit
(** A SYN reached the queue (starts epoch estimation for the flow). *)

val observe_data : t -> Taq_net.Packet.t -> classification
(** A data packet arrived at the queue: classify it, update counters
    and the epoch estimate. Creates flow state on first sight. *)

val observe_drop : t -> Taq_net.Packet.t -> unit
(** The queue dropped this packet (of an already-observed flow). *)

val tick : t -> unit
(** Housekeeping: roll epochs of flows that have gone quiet (their
    state machine must advance through silent epochs even with no
    packets arriving) and forget flows idle beyond the configured
    timeout. Call periodically (the discipline schedules this). *)

val state : t -> flow:int -> Flow_state.t
(** Unknown flows report {!Flow_state.initial}. *)

val silence_epochs : t -> flow:int -> int
(** Consecutive fully-silent epochs ending now (0 for active flows) —
    the recovery queue's priority key. *)

val epoch_len : t -> flow:int -> float

val epochs_observed : t -> flow:int -> int

val rate_bps : t -> flow:int -> float
(** Smoothed goodput estimate; 0 for unknown flows. *)

val outstanding_drops : t -> flow:int -> int

val recent_drops : t -> flow:int -> int
(** Drops inflicted on the flow across the current and previous
    epochs. *)

val is_overpenalized : t -> flow:int -> bool
(** More than [overpenalize_drops] drops across the current and
    previous epochs. *)

val is_new_flow : t -> flow:int -> bool
(** Within its first {!Taq_config.slowstart_epochs} epochs and still
    in slow start. *)

val active_flow_count : t -> int
(** Flows seen within the last few epochs — the denominator of the
    fair share. *)

val tracked_flow_count : t -> int
(** Never exceeds [max_tracked_flows]: inserting into a full table
    evicts the least-recently-seen entry first (idle-first/LRU; ties
    broken by lowest id for determinism). *)

val cap_evictions : t -> int
(** Cumulative insert-time evictions forced by the [max_tracked_flows]
    cap — the overload guard's churn pressure signal. Distinct from
    idle-timeout expiry in {!tick}. *)

val peak_tracked : t -> int
(** High-water mark of {!tracked_flow_count} over the tracker's life. *)

val fair_share_bps : t -> float
(** [capacity_bps] split equally among the active flows; the full
    capacity when none is active. *)

val below_fair_share : t -> flow:int -> bool
(** The flow's smoothed rate is strictly below {!fair_share_bps}. *)
