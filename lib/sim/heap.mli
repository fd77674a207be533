(** Array-based binary min-heap.

    The simulator's event queue: [O(log n)] push/pop ordered by a
    user-supplied comparison. The heap is not stable; callers that need
    FIFO ordering among equal keys must fold a tie-breaker (e.g. a
    sequence number) into [compare]. *)

type 'a t

(** [create ~compare] is an empty heap ordered by [compare]. *)
val create : compare:('a -> 'a -> int) -> 'a t

(** Number of elements currently in the heap. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t x] inserts [x]. *)
val push : 'a t -> 'a -> unit

(** Smallest element, without removing it. *)
val peek : 'a t -> 'a option

(** Remove and return the smallest element. Popped elements are not
    kept reachable by the backing array. *)
val pop : 'a t -> 'a option

(** Smallest element; raises [Invalid_argument] on an empty heap.
    Allocates nothing. *)
val top : 'a t -> 'a

(** Remove the smallest element; raises [Invalid_argument] on an empty
    heap. Allocates nothing and keeps the backing array when the heap
    drains, so the last element removed stays referenced until the next
    [push] overwrites it. *)
val remove_top : 'a t -> unit

(** Drop every element and release the backing array. *)
val clear : 'a t -> unit

(** Drain the heap in ascending order. *)
val pop_all : 'a t -> 'a list
