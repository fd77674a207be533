(** Hierarchical timer wheel with O(1) cancellation.

    The engine's event queue: five levels of 32 slots bucket
    events by tick distance from a cursor, an overflow list catches
    events beyond the top level's span, and a small binary heap orders
    the currently-due bucket by the exact (time, seq) key — so the
    execution order is identical to a single binary heap over the same
    keys, while push and cancel are O(1) and an idle stretch costs one
    hop per occupied boundary rather than one pop per event.

    Nodes live in flat arrays, one per field, with the times unboxed;
    the buckets, the overflow list and the ready heap hold indices into
    them. A push copies its time from a flat {!cell}, so the time is
    never boxed on its way in, stores its value and allocates nothing
    else once the arrays have grown to the queue's peak; [advance]
    raises a flat clock to the next node's time, so none is boxed on
    its way out either.

    Cancelled nodes are dropped lazily (when the cursor would otherwise
    move them), so a timer armed 500 ms out and cancelled 2 ms later
    never pays a heap percolation. Their values are not kept that long:
    a cancel swaps the wheel's blank in at once, and so does a node's
    last turn. *)

type 'a t

(** A scheduled node's handle: an immediate int naming the node's entry
    in the wheel and the entry's generation. The generation goes up
    when the node fires or, once cancelled, is dropped, so a handle
    outliving its node names nothing, even after its entry has been
    reused. *)
type node [@@immediate]

(** A handle that names no node: [cancel] of it returns [false]. *)
val none : node

(** A float stored flat: writing [at] allocates nothing, where a float
    passed to a function in another module is boxed. *)
type cell = { mutable at : float }

(** An empty wheel whose buckets are 0.25 ms wide. [blank] is what a
    cancelled or fired node's entry holds in place of its value, and
    what [take] returns for a turn that is not a node's last. Ordering
    is exact regardless of the tick width; the width only tunes
    bucketing efficiency. *)
val create : blank:'a -> 'a t

(** Live (scheduled, not cancelled, not fired) nodes. *)
val length : 'a t -> int

(** Total nodes cancelled over the wheel's lifetime. *)
val cancelled : 'a t -> int

(** [push t cell ~turns v] schedules [v] at [cell.at] under the
    wheel's next sequence number and returns its handle; ties in time
    execute in sequence order, so in push order. [turns] is how many
    times [take] reaches the node: 1 for an ordinary event; with 2, the
    first [take] puts it back at its own time under the next sequence
    number and returns the blank, and the second returns [v]. Raises
    [Invalid_argument] unless [turns] is positive. *)
val push : 'a t -> cell -> turns:int -> 'a -> node

(** The slab entry a handle names, a small non-negative int. A node
    keeps its entry from its push to its last turn, so a caller can
    keep data of its own for the node in an array indexed by it. *)
val entry : node -> int

(** The entry of the node whose last turn [take] returned most
    recently. Read while that node's value runs, it names where the
    caller keeps the node's own data. *)
val taken : 'a t -> int

(** O(1) cancel: [true] if the node was live (it will never be
    returned by [take]); [false] if it already fired, was already
    cancelled, or its handle is stale. A live node's value is replaced
    by the blank at once, so whatever the old value captured can be
    collected before the cursor reaches the dead node. *)
val cancel : 'a t -> node -> bool

(** Is a live node left? Drops the dead nodes ahead of the earliest
    live one and may advance the internal cursor; ordering of later
    pushes is unaffected. Allocates nothing, like [due_by] and
    [take]. *)
val settle : 'a t -> bool

(** [advance t clock] raises [clock.at] to the earliest live node's
    time when that is later, and leaves it otherwise; no time is
    boxed. Raises [Invalid_argument] when no live node is left. *)
val advance : 'a t -> cell -> unit

(** Is a live node due at or before [limit]? [false] when none is
    left. *)
val due_by : 'a t -> float -> bool

(** Use up one turn of the earliest live node. On its last turn the
    node is removed, its entry freed and blanked, and its value
    returned; with a turn left it goes back as [push] describes and the
    blank is returned. Raises [Invalid_argument] when none is left. *)
val take : 'a t -> 'a
