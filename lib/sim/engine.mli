(** Deterministic discrete-event engine.

    Times are in simulated {b milliseconds} throughout the V-System
    reproduction, matching the units the paper reports. Events scheduled
    for the same instant execute in scheduling order.

    The queue behind the engine is a hierarchical timer wheel
    ({!Wheel}): O(1) scheduling and cancellation, in the (time, seq)
    order a binary heap over the same keys gives. The queue allocates
    nothing per event once its arrays have grown, every push takes its
    time from the flat cell {!due}, so no time is boxed on its way in,
    and the clock is a flat cell too ({!clock}), so no event boxes it
    on its way out. An event that only resumes a fiber ({!park}) or
    runs a fixed action on a payload ({!post}) builds no closure
    either: its payload waits at its node's wheel entry. *)

type t

(** Raised by [schedule_at] when asked to schedule in the past. Every
    call below that schedules raises [Invalid_argument] instead for a
    time that is NaN or infinite. *)
exception Time_went_backwards of { now : float; requested : float }

val create : unit -> t

(** A number no other engine in the process has. *)
val id : t -> int

(** Current simulated time (ms). It boxes the clock at most once per
    instant, on the first call after the clock moved; a hot reader
    reads [(clock t).at] instead, which boxes nothing. *)
val now : t -> float

(** Number of live (scheduled, not cancelled) events waiting. *)
val pending : t -> int

(** Total number of events executed so far. *)
val executed : t -> int

(** Total number of timers cancelled before firing. *)
val cancelled_timers : t -> int

(** [schedule ?delay t f] runs [f] at [now t +. delay] (default: now). *)
val schedule : ?delay:float -> t -> (unit -> unit) -> unit

(** [schedule_at t time f] runs [f] at absolute [time]. *)
val schedule_at : t -> float -> (unit -> unit) -> unit

(** [defer_at t time f] behaves as [schedule_at t time (fun () ->
    schedule t f)] on one queue node: an event falls due at [time] and
    re-queues itself at the same instant under the next sequence
    number, and only the second turn runs [f]. Both turns count as
    executed events, and [pending] counts the node until [f] runs. It
    cannot be cancelled. A fiber's {!Proc.delay} wakes on the same
    node through {!park}, which keeps no closure. *)
val defer_at : t -> float -> (unit -> unit) -> unit

(** {1 Cancellable timers}

    [timer]/[timer_at] are [schedule]/[schedule_at] returning a handle;
    [cancel] is O(1) and the cancelled action never runs. The engine
    lets go of the action at once, so whatever it captured can be
    collected even while the dead entry still waits in the queue; it
    lets go of a fired timer's action before running it.

    A handle is an immediate value, and it outlives its timer safely:
    cancelling a timer that already fired (or was already cancelled) is
    a no-op — including from an event executing at the timer's own
    timestamp, or from the timer's own action — and so is cancelling it
    after its queue entry has been reused by a later timer. *)

type timer [@@immediate]

(** A handle that names no timer, for a record whose timer is not
    armed: cancelling it is a no-op. *)
val no_timer : timer

val timer : ?delay:float -> t -> (unit -> unit) -> timer
val timer_at : t -> float -> (unit -> unit) -> timer
val cancel : t -> timer -> unit

(** {1 The time cell and the clock}

    The build inlines no call across modules, so a float passed to one
    is boxed. Every push therefore reads its time from one flat cell,
    and the wheel copies it from there into its unboxed time array:
    [schedule_at], [timer_at], [defer_at] and the [?delay] forms write
    it from their arguments, and a hot caller writes [due.at] itself
    and then calls [schedule_due], [timer_due], [park] or [post].
    Writing the cell must be the last step before that push: nothing
    that could push may run between the two. One cell serves every
    engine.

    The engine's clock is a cell of the same kind, one per engine. *)

type cell = Wheel.cell = { mutable at : float }

val due : cell

(** [clock t] is the engine's clock: [(clock t).at] is [now t], read
    without a box. Read-only by contract: only the engine writes it, as
    an event falls due or a [run ~until] reaches its horizon. *)
val clock : t -> cell

(** [schedule_due t f] runs [f] at the time in [due]: [schedule_at]
    with its time already written. *)
val schedule_due : t -> (unit -> unit) -> unit

(** [timer_at] with its time already written into [due]. *)
val timer_due : t -> (unit -> unit) -> timer

(** {1 Posts: a payload parked at its node}

    A poster is an action over two values, built once; each of its
    posts is an event that runs it on a payload of its own, without a
    closure. *)

type ('a, 'b) poster

(** [poster t run] is the poster of [run] on [t]. *)
val poster : t -> ('a -> 'b -> unit) -> ('a, 'b) poster

(** [post p a b] is [schedule_due t (fun () -> run a b)] on the
    poster's engine [t], without the closure: it pushes the same
    one-turn node at the time in {!due}, and [a] and [b] wait in arrays
    of the poster's indexed by the node's wheel entry. The node's turn
    blanks both slots before it runs [run a b], so no payload outlives
    its event. *)
val post : ('a, 'b) poster -> 'a -> 'b -> unit

(** A fiber's continuation, resumed with [()]. *)
type fiber = (unit, unit) Effect.Deep.continuation

(** [park t k] is [defer_at t due.at (fun () -> Effect.Deep.continue k
    ())] without the closure: it pushes the same two-turn node as a
    post of the engine's own poster of continuations, so [k] waits at
    the node's wheel entry until the node's last turn resumes it and
    blanks its slot. It is how a fiber's {!Proc.delay} wakes. *)
val park : t -> fiber -> unit

(** {1 Running} *)

(** Execute the single earliest event. Returns [false] if the queue was
    empty. *)
val step : t -> bool

(** Run until the queue empties, [until] (inclusive) is reached, or
    [max_events] events have executed. Not reentrant. *)
val run : ?until:float -> ?max_events:int -> t -> unit

(** {1 Throughput introspection}

    Bookkeeping for `vsh engine stats` and the bench harness; reads the
    process clock but never influences the simulation. *)

(** Events executed by the most recent [run]. *)
val last_run_events : t -> int

(** CPU seconds the most recent [run] took. *)
val last_run_cpu_s : t -> float

(** Events/sec of the current run if one is in progress, else of the
    last completed run (0 before any run). *)
val events_per_sec : t -> float

(** Events executed across every engine in the process — the bench
    harness's per-experiment trajectory counter. *)
val global_executed : unit -> int
