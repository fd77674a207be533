(** Cooperative simulated processes.

    A process is an OCaml fiber running inside the event loop. Blocking
    operations suspend the fiber and resume it through the event queue,
    so all interleaving is deterministic. Every blocking operation below
    must be called from within a fiber started by [spawn]. *)

(** A one-shot callback that resumes a suspended fiber with a value or
    an exception. Calling it twice raises [Invalid_argument]. *)
type 'a resumer = ('a, exn) result -> unit

(** Raised inside a fiber that is being torn down (host crash). *)
exception Killed of string

(** [spawn ?name engine body] schedules a new fiber to start now. A
    fiber that dies with an uncaught exception other than [Killed] (its
    normal end when torn down) prints it and re-raises it out of the
    engine loop, failing the run. *)
val spawn : ?name:string -> Engine.t -> (unit -> unit) -> unit

(** Suspend the current fiber; [register] receives the resumer and must
    arrange for it to be called exactly once (possibly immediately). *)
val suspend : ('a resumer -> unit) -> 'a

(** Block the current fiber for [duration] simulated ms. It wakes in
    two turns of one event ({!Engine.defer_at}), as a [suspend] whose
    resumer is called at the wake time would. Raises [Invalid_argument]
    for a negative or non-finite [duration], or an engine other than
    the one the fiber was spawned on. *)
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

  (** Fibers currently blocked in [receive]. *)
  val waiters : 'a t -> int

  (** Resume every blocked receiver with [exn]. *)
  val abort_waiters : 'a t -> exn -> unit
end
