(** The client-side name-resolution cache: a bounded LRU mapping name
    prefixes (cut at component boundaries) to what is known about them —
    a resolved binding, a domain-server referral, or an authoritative
    failure (negative entry).

    Two users hold instances, and the run-time lets at most one of them
    answer for a given name: a program's name cache (one per client,
    through {!learn}/{!find}) for the '[prefix]' names no resolver
    handles, and a host's resolver (through {!learn_at}/{!find_at}) for
    the names it does.

    Entries learned through {!learn} are positive bindings without a
    TTL, validated {e on use}: the run-time evicts an entry when a reply
    proves it stale ([Bad_context] / [Not_found] / IPC failure) and
    falls back one prefix level. The TTL-aware interface additionally
    supports per-entry expiry, negative caching, and stale-serving (an
    expired binding is still reported, marked stale, so a resolver can
    serve it while the authoritative server is unreachable). The cache
    itself never performs network activity and never touches simulated
    time. *)

type t

(** What a cached prefix is known to be. *)
type value =
  | Bound of Context.spec  (** the (server, context) implementing it: a route target *)
  | Delegation of Context.spec
      (** a referral to the domain server responsible for it: a resume
          point for an iterative resolver, not a route target *)
  | Negative of Reply.code
      (** an authoritative [Not_found]/[Bad_context]: dooms the whole
          subtree under the prefix while fresh *)

(** Cumulative counters plus the current entry counts. *)
type stats = {
  hits : int;  (** a lookup returned a fresh positive entry *)
  misses : int;  (** a lookup found nothing at any boundary *)
  stale : int;  (** on-use invalidations *)
  evictions : int;  (** capacity evictions (LRU end) *)
  insertions : int;  (** distinct keys inserted *)
  size : int;
  neg_hits : int;  (** [find_at] answered from a fresh negative entry *)
  stale_hits : int;  (** [find_at] returned an expired binding (stale-serving candidate) *)
  neg_size : int;  (** negative entries currently cached *)
}

val default_capacity : int

(** [create ?capacity ()] — raises [Invalid_argument] unless the
    capacity is at least 1. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int
val length : t -> int
val stats : t -> stats

(** Drop every entry (counters are kept). *)
val clear : t -> unit

(** [find t name] returns the deepest cached positive binding of a
    prefix of [name] ending at a component boundary ('/' or just after
    ']'), promoting the entry to most-recently-used. TTL-blind and blind
    to referrals and negative entries — the original on-use-validated
    protocol. Counts a hit or miss. *)
val find : t -> string -> (string * Context.spec) option

(** [find_below t name c] is {!find} over the prefixes of [name] that
    end at or before [c]: at {!Csname.last_component}, the route of an
    operation on the name itself, by its parent. *)
val find_below : t -> string -> int -> (string * Context.spec) option

val mem : t -> string -> bool

(** What a TTL-aware lookup saw. *)
type hit = {
  hkey : string;  (** the cached prefix matched *)
  hvalue : value;
  hfresh : bool;  (** within its TTL (entries without one are always fresh) *)
  hexpires_at : float option;
}

(** [find_at t ~now name] returns the deepest cached prefix of [name]
    with its freshness. Fresh entries of any kind are returned; an
    expired [Bound] entry is returned marked stale (the stale-serving
    candidate); expired referrals and negative entries are dropped on
    sight and the search continues one level shallower. Counts hits,
    negative hits, stale hits and misses. *)
val find_at : t -> now:float -> string -> hit option

(** [learn_at t ~now ?ttl_ms key value] inserts or refreshes an entry
    (trailing separators of [key] are stripped) expiring [ttl_ms] after
    [now] — never, when [ttl_ms] is omitted. Returns the key evicted to
    make room, if the cache was full. *)
val learn_at : t -> now:float -> ?ttl_ms:float -> string -> value -> string option

(** [learn t key spec] inserts or refreshes a positive binding without a
    TTL — the original interface, byte-identical in behaviour. *)
val learn : t -> string -> Context.spec -> string option

(** [invalidate t key] removes an entry proved stale on use; returns
    whether it was present. Counts towards [stale]. *)
val invalidate : t -> string -> bool

(** Positive bindings in MRU-to-LRU order (tests / inspection — the
    original shape). *)
val to_list : t -> (string * Context.spec) list

(** Every entry in MRU-to-LRU order with its expiry, for TTL
    inspection. *)
val dump : t -> (string * value * float option) list

val pp_value : Format.formatter -> value -> unit
