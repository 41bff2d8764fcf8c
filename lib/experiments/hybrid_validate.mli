(** Validation of the hybrid fluid backend against ground truth.

    For each queue discipline, the same contention scenario runs
    twice: once fully packet-level (foreground + background cohorts
    both as real TCP state machines — the reference), and once hybrid
    (the same foreground cohort, with the background collapsed into a
    {!Taq_fluid} mean-field aggregate of equal population, RTT and
    packet size). The runs must agree, within tolerance, on

    - the foreground cohort's long-term Jain fairness index, and
    - the byte-weighted drop rate at the bottleneck (the hybrid side
      combines packet drops with fluid overflow).

    Mid-size on purpose: large enough for the mean-field limit to be
    meaningful, small enough that the packet-level reference is cheap.
    The [hybrid-validate] registry target fails (nonzero exit, bench
    gate red) if any row disagrees beyond tolerance. *)

type params = {
  queues : string list;  (** discipline names ({!Common.disc_names}) *)
  capacity_bps : float;
  fg_flows : int;  (** packet-level foreground cohort, both runs *)
  bg_flows : int;  (** background cohort: packets in the reference, fluid in the hybrid run *)
  rtt : float;
  duration : float;
  buffer_rtts : float;
  dt : float;  (** fluid integrator step *)
  seed : int;
  jain_tol : float;  (** max |Jain_packet − Jain_hybrid| *)
  drop_rel_tol : float;
      (** max relative drop-rate disagreement:
          |drop_packet − drop_hybrid| ≤ max([drop_floor],
          [drop_rel_tol]·drop_packet) — relative because a mean-field
          approximation's error scales with the quantity itself *)
  drop_floor : float;  (** absolute slack for near-lossless runs *)
}

val quick : params
val default : params

type row = {
  queue : string;
  jain_packet : float;
  jain_hybrid : float;
  drop_packet : float;
  drop_hybrid : float;
  fluid_report : string;
  ok : bool;
  problems : string list;  (** empty iff [ok] *)
}

val run : params -> row list

val print : row list -> unit
(** Table + verdicts through the {!Taq_util.Out} sink. *)
