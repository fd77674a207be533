(** Array-based binary min-heap.

    The queue of the reference engine the timer wheel is tested against
    ([test/heap_engine], also E12's baseline): [O(log n)] push/pop
    ordered by a user-supplied comparison. The heap is not stable;
    callers that need FIFO ordering among equal keys must fold a
    tie-breaker (e.g. a sequence number) into [compare]. *)

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

(** Drain the heap in ascending order. *)
val pop_all : 'a t -> 'a list
