(** The binary-heap event queue the engine's timer wheel replaced, kept
    as a reference with two users: the wheel's equivalence tests
    (test/test_sim.ml), which check that {!Vsim.Engine} executes every
    schedule in the same order, and E12's Phase A, which measures the
    wheel's speedup over it.

    It keeps the engine's (time, seq) order and cancellation semantics:
    events at equal times run in scheduling order, a cancel lets go of
    the action at once, and cancelling a fired or cancelled timer is a
    no-op. A cancelled timer stays in the heap until it reaches the
    top. *)

(** What the engine and this reference share. *)
module type S = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> float

  (** Live (scheduled, not cancelled) events waiting. *)
  val pending : t -> int

  val executed : t -> int
  val cancelled_timers : t -> int
  val schedule : ?delay:float -> t -> (unit -> unit) -> unit

  (** [defer_at t time f] runs [f] one turn after an event at [time]:
      here a timer whose action schedules [f] with no delay, the two
      events the engine runs on one queue node. *)
  val defer_at : t -> float -> (unit -> unit) -> unit

  val timer : ?delay:float -> t -> (unit -> unit) -> timer
  val cancel : t -> timer -> unit

  (** Run until the queue empties, [until] (inclusive) is reached, or
      [max_events] events have executed; a run stopped by [until] with
      nothing left pending advances the clock to it. *)
  val run : ?until:float -> ?max_events:int -> t -> unit

  val last_run_events : t -> int
  val last_run_cpu_s : t -> float
end

include S

(** Events executed across every reference queue in the process: the
    bench harness adds them to {!Vsim.Engine.global_executed}. *)
val global_executed : unit -> int
