(** Deterministic discrete-event engine.

    Times are in simulated {b milliseconds} throughout the V-System
    reproduction, matching the units the paper reports. Events scheduled
    for the same instant execute in scheduling order.

    The queue behind the engine is a hierarchical timer wheel
    ({!Wheel}): O(1) scheduling and cancellation, in the (time, seq)
    order a binary heap over the same keys gives. *)

type t

(** Raised by [schedule_at] when asked to schedule in the past. Every
    call below that schedules raises [Invalid_argument] instead for a
    time that is NaN or infinite. *)
exception Time_went_backwards of { now : float; requested : float }

val create : unit -> t

(** A number no other engine in the process has. *)
val id : t -> int

(** Current simulated time (ms). *)
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
    is how a fiber's {!Proc.delay} wakes, and cannot be cancelled. *)
val defer_at : t -> float -> (unit -> unit) -> unit

(** {1 Cancellable timers}

    [timer]/[timer_at] are [schedule]/[schedule_at] returning a handle;
    [cancel] is O(1) and the cancelled action never runs. The engine
    lets go of the action at once, so whatever it captured can be
    collected even while the dead entry still waits in the queue.
    Cancelling a timer that already fired (or was already cancelled) is
    a no-op — including from an event executing at the timer's own
    timestamp. *)

type timer

val timer : ?delay:float -> t -> (unit -> unit) -> timer
val timer_at : t -> float -> (unit -> unit) -> timer
val cancel : t -> timer -> unit

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
