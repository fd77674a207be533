(** Cooperative simulated processes.

    A process is an OCaml fiber running inside the event loop. Blocking
    operations suspend the fiber and resume it through the event queue,
    so all interleaving is deterministic. Every blocking operation below
    must be called from within a fiber started by [spawn]. *)

(** Raised inside a fiber that is being torn down (host crash). *)
exception Killed of string

(** [spawn ?name engine body] schedules a new fiber to start now. A
    fiber that dies with an uncaught exception other than [Killed] (its
    normal end when torn down) prints it and re-raises it out of the
    engine loop, failing the run. *)
val spawn : ?name:string -> Engine.t -> (unit -> unit) -> unit

(** A blocked fiber's continuation, waiting for its value. *)
type 'a waiting

(** [block register] blocks the current fiber and calls [register]
    with its continuation at once, outside the fiber. The caller keeps
    the continuation where its wake will find it, and must see that it
    is woken exactly once, by [wake] or [wake_exn]. Each call builds
    the effect it performs. *)
val block : ('a waiting -> unit) -> 'a

(** A [block] built once and performed many times: a call that blocks
    the same way each time (it finds what it needs through state its
    [register] captured) allocates nothing to block. *)
type 'a blocker

(** [blocker register] builds the blocker of [register]. *)
val blocker : ('a waiting -> unit) -> 'a blocker

(** [await b] is [block register] for the [register] [b] was built
    from, without building anything. *)
val await : 'a blocker -> 'a

(** [wake engine k v] resumes [k] with [v] in one event at the current
    instant, behind every event already queued for it. Waking one
    continuation twice fails the run: the second resume raises
    [Effect.Continuation_already_resumed] out of the engine loop. *)
val wake : Engine.t -> 'a waiting -> 'a -> unit

(** [wake] that raises [e] in the fiber instead. *)
val wake_exn : Engine.t -> 'a waiting -> exn -> unit

(** Block the current fiber for [duration] simulated ms. It wakes in
    two turns of one event, as a [block] whose [wake] came at the wake
    time would: its continuation waits on the engine's queue node
    ({!Engine.park}), and no closure is built around it. Raises
    [Invalid_argument] for a negative or non-finite [duration], or an
    engine other than the one the fiber was spawned on. *)
val delay : Engine.t -> float -> unit

(** Let other events at the current instant run first. *)
val yield : Engine.t -> unit

(** Single-use synchronization cell (request/reply rendezvous). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  (** Fill the cell, waking the reader if one is blocked. Raises
      [Invalid_argument] if already filled. *)
  val fill : 'a t -> ('a, exn) result -> unit

  (** Block until filled; re-raises if filled with an error. At most one
      reader is allowed. *)
  val read : 'a t -> 'a
end

(** Unbounded FIFO with blocking receive. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit

  (** Block until an item is available. *)
  val receive : 'a t -> 'a

  (** Items currently queued. *)
  val length : 'a t -> int

  (** Resume every blocked receiver with [exn]. *)
  val abort_waiters : 'a t -> exn -> unit
end
