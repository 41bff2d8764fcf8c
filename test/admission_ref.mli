(** The scanning admission controller, retained as the
    differential-testing reference for the production
    [Taq_core.Admission].

    Same contract as the production controller, with the original
    representation: {!expire} walks every admitted and waiting pool on
    every call. The test battery drives both lockstep under random
    interleavings and requires identical answers. Not used on
    production paths. *)

type t

type decision = Admitted | Rejected

val create : pthresh:float -> now:(unit -> float) -> t
val note_arrival : t -> unit
val note_drop : t -> unit
val loss_rate : t -> float
val on_syn : t -> key:int -> decision
val touch : t -> key:int -> unit
val admitted_count : t -> int
val waiting_count : t -> int

type feedback = { position : int; expected_wait : float }

val feedback : t -> key:int -> feedback option

val shed_waiting : t -> unit

val expire : t -> unit
(** Drop admitted pools idle longer than [pool_expiry] and waiting
    pools first rejected that long ago, by a full pass over both
    tables. *)
