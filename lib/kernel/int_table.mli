(** A flat table from non-negative ints to values: open addressing with
    linear probing, the keys in one int array and the values in another,
    so an insert allocates nothing until the table grows. The kernel
    keeps a host's transactions in two: the one each receiver serves for
    each sender, and each blocked local sender's pending record by txn.

    A table starts at 8 slots and doubles while more than half of them
    are taken; a removal shifts the entries after it back, so no
    tombstone is left. [fold]'s order is unspecified: a caller that
    needs an order sorts what it folds. *)

type 'a t

(** An empty table of 8 slots. [blank] is what a free slot holds in
    place of a value, so a removed value is not kept alive. *)
val create : blank:'a -> 'a t

(** Number of keys bound. *)
val length : 'a t -> int

(** The value bound to the key. Raises [Not_found] if there is none. *)
val find : 'a t -> int -> 'a

(** Bind the key to the value, replacing any binding it had. Raises
    [Invalid_argument] for a negative key. *)
val replace : 'a t -> int -> 'a -> unit

(** Unbind the key; a no-op if it is not bound. *)
val remove : 'a t -> int -> unit

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

(** The slot where a probe for the key starts in a table of [slots]
    slots, a power of two: for tests that need keys whose probes
    collide. *)
val home_slot : slots:int -> int -> int

(** Unbind every key and go back to 8 slots. *)
val reset : 'a t -> unit
