(** Hierarchical timer wheel with O(1) cancellation.

    The engine's event queue: five levels of 32 slots bucket
    events by tick distance from a cursor, an overflow list catches
    events beyond the top level's span, and a small binary heap orders
    the currently-due bucket by the exact (time, seq) key — so the
    execution order is identical to a single binary heap over the same
    keys, while push and cancel are O(1) and an idle stretch costs one
    hop per occupied boundary rather than one pop per event.

    Cancelled nodes are dropped lazily (when the cursor would otherwise
    move them), so a timer armed 500 ms out and cancelled 2 ms later
    never pays a heap percolation. Their values are not kept that long:
    a cancel swaps a blank in at once. *)

type 'a t

(** A scheduled entry: a (time, seq) key, a value and a liveness mark
    that also counts the node's turns. The node is the cancellation
    handle. Its time never changes; its seq changes at its turn, when
    [requeue] puts a node with a turn left back in the queue. *)
type 'a node

(** An empty wheel whose buckets are 0.25 ms wide. Ordering is exact
    regardless of the tick width; the width only tunes bucketing
    efficiency. *)
val create : unit -> 'a t

(** Live (scheduled, not cancelled, not fired) nodes. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Total nodes cancelled over the wheel's lifetime. *)
val cancelled : 'a t -> int

(** [push t ~time ~seq ~turns v] schedules [v] and returns its handle.
    [seq] must make (time, seq) unique; ties in [time] execute in [seq]
    order. [turns] is how many times [take] returns the node: 1 for an
    ordinary event; with 2, the first [take] leaves it live and its
    taker must hand it back through [requeue]. Raises
    [Invalid_argument] unless [turns] is positive. *)
val push : 'a t -> time:float -> seq:int -> turns:int -> 'a -> 'a node

(** [requeue t n ~seq] puts back a live node that [take] just returned,
    at its own time under the fresh [seq] (which must keep (time, seq)
    unique). Raises [Invalid_argument] if [n] is dead. *)
val requeue : 'a t -> 'a node -> seq:int -> unit

(** O(1) cancel: [true] if the node was live (it will never be
    returned by [take]); [false] if it already fired or was already
    cancelled. A live node's value is replaced by [blank] at once, so
    whatever the old value captured can be collected before the cursor
    reaches the dead node. *)
val cancel : 'a t -> 'a node -> blank:'a -> bool

(** Is a live node left? Drops the dead nodes ahead of the earliest
    live one and may advance the internal cursor; ordering of later
    pushes is unaffected. Allocates nothing, like [next] and [take]. *)
val settle : 'a t -> bool

(** Earliest live node, without consuming it. Raises [Invalid_argument]
    when none is left. *)
val next : 'a t -> 'a node

(** Remove and return the earliest live node, using up one of its
    turns. On its last turn it is marked fired (a later [cancel] of it
    is a no-op); with a turn left it stays live, counted by [length],
    until it is requeued. Raises [Invalid_argument] when none is
    left. *)
val take : 'a t -> 'a node

(** {1 Nodes} *)

val time : 'a node -> float
val value : 'a node -> 'a

(** Not yet fired or cancelled: a node [take] returned with a turn left
    is live. *)
val live : 'a node -> bool
