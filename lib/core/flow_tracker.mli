(** Per-flow observation state at the TAQ middlebox.

    For every flow crossing the queue, tracks the paper's four epoch
    parameters — new packets, highest sequence number, retransmissions,
    and last-epoch losses (Section 3.3) — plus the derived quantities
    queue management needs: the approximate state (Figure 7), silence
    length, rate estimate, over-penalization, and epoch estimate.

    Retransmissions are {e inferred} (sequence number at or below the
    flow's highest seen), never read from the packet's sender-side
    [retx] flag: a middlebox could not know it.

    {b Active flows.} A flow is active iff
    [now -. last_seen <= Float.max 1.0 (5.0 *. epoch)], where [epoch]
    is its current epoch estimate. Every count and share below reads
    exactly this predicate. The tracker does not rescan the table to
    evaluate it for {!active_flow_count}: the count is an aggregate
    that changes only when a flow is observed, goes idle or is
    forgotten, and going idle is found through a heap of deadlines
    keyed by a lower bound on each flow's expiry. The [now] clock must
    not run backwards.

    {b Lazy epoch rolls.} A silent flow's epochs still roll at every
    {!tick}, but the rolls are replayed only when the flow is next
    observed or read: {!tick} logs its instant, and every observer and
    accessor first replays the logged ticks the flow has not yet
    applied, each exactly as an eager tick would have at its instant
    (same 64-epoch catch-up budget, same snap). A tick at which no
    roll is due costs nothing; a replayed roll costs O(log ticks) for
    a binary search of the log. The log keeps only the instants no
    older than {!flow_idle_timeout} (older ones are applied to every
    live flow), so with ticks at least
    {!Taq_config.tick_interval} apart it holds about
    [flow_idle_timeout / tick_interval + 1] instants (2401).

    The retained scanning tracker in [test/flow_tracker_ref.ml], which
    rescans for every count and rolls every flow at every tick, is the
    differential-testing reference. *)

type t

type classification = New_data | Retransmission

val flow_idle_timeout : float
(** Per-flow state is forgotten after this much silence (120 s). *)

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
    packets arriving) and forget flows idle beyond
    {!flow_idle_timeout}. Call periodically (the discipline schedules
    this). Costs O(log n) per flow forgotten or found still live at its
    idle deadline, and amortized O(1) otherwise: the rolls are logged
    and replayed lazily (above), and idle flows are found through a
    heap of deadlines keyed by a lower bound on
    [last_seen + flow_idle_timeout], re-checked against the exact
    predicate when due. *)

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
    fair share. Amortized O(1): O(log n) per flow that went idle or
    whose deadline came due since the previous call, nothing else. *)

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
(** The fair share in bits/second: [capacity_bps] split equally among
    the active flows (§4.2's fair-queuing model), the full capacity
    when none is active. Costs what {!active_flow_count} costs. *)

val below_fair_share : t -> flow:int -> bool
(** The flow's smoothed rate is strictly below {!fair_share_bps}. *)

val recount : t -> int
(** Active flows recounted by a full O(flows) pass over the table with
    the exact predicate — the reference the runtime check compares
    {!active_flow_count} against. Not for per-packet paths. *)
