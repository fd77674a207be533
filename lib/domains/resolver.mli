(** The per-host caching resolver role.

    Walks the federated domain tree iteratively — root to leaf,
    following the delegation records domain servers stamp into
    {!Domain_server.P_referral} replies — with a TTL cache of referrals
    and terminal bindings, negative caching of authoritative
    [Not_found]/[Bad_context] answers, stale-serving of expired
    bindings while the tree is unreachable (bounded by the stale
    window), and a delegation-cycle guard.

    A resolver is a per-host role, not a process: clients share its
    cache and run walks on their own fibers, so IPC costs land on the
    operation that needed the resolution. *)

module Kernel = Vkernel.Kernel
open Vnaming

type t

(** A successful resolution: where the client continues interpreting
    the name, and how it was obtained. *)
type outcome = {
  spec : Context.spec;  (** continue interpretation here... *)
  index : int;  (** ...at this index into the name *)
  queries : int;  (** authoritative queries this resolution made *)
  served_stale : bool;  (** answered from an expired entry *)
  cache_key : string;  (** the prefix the answer is cached under *)
}

type stats = {
  walks : int;
  cache_answers : int;  (** resolved with zero queries *)
  neg_answers : int;  (** failed from a fresh negative entry, zero queries *)
  stale_serves : int;
  queries : int;
  referrals : int;
  loops : int;  (** delegation cycles detected *)
  failures : int;
}

val default_ttl_ms : float
val default_neg_ttl_ms : float

(** [create ~prefix ~root ()] — a resolver answering for
    "[[prefix]]..."-absolute names, walking from the [root] domain
    server. [stale_window_ms] is how long past expiry a terminal
    binding may still be served when a refresh cannot reach the tree
    (0, the default, disables stale-serving). [max_steps] bounds a
    single walk. Raises [Invalid_argument] on non-positive TTLs, a
    negative window, or [max_steps < 1]. *)
val create :
  ?capacity:int ->
  ?ttl_ms:float ->
  ?neg_ttl_ms:float ->
  ?stale_window_ms:float ->
  ?max_steps:int ->
  prefix:string ->
  root:Context.spec ->
  unit ->
  t

val prefix : t -> string
val root : t -> Context.spec

(** Point the resolver at a new root incarnation (after a root
    restart). *)
val rebind_root : t -> Context.spec -> unit

(** Does this resolver answer for [name]? Exactly the names opening
    with its '[prefix]'. *)
val handles : t -> string -> bool

(** [resolve t self name] maps [name]'s domain part to the (server,
    context) that interprets what follows. Zero queries on a fresh
    cache answer; otherwise an iterative walk from the deepest cached
    referral (or the root), one marked MapContext per level. [trace],
    the client operation's root context (the run-time passes it on
    every route), parents each per-level ResolveStep span under the
    root: it is reissued at each step's send, so a step's queue wait is
    its own hop, and the resolver's recorder events carry its trace. *)
val resolve :
  t ->
  Vmsg.t Kernel.self ->
  ?trace:Vobs.Span.ctx ->
  string ->
  (outcome, Vio.Verr.t) result

(** On-use invalidation: an operation routed through a resolved binding
    proved it wrong. Returns whether the key was cached. *)
val invalidate : t -> string -> bool

(** Feed a terminal binding learned out-of-band (the stamp on an object
    server's successful reply) into the cache under the resolver's
    TTL. *)
val learn : t -> now:float -> string -> Context.spec -> unit

val cache : t -> Name_cache.t
val cache_stats : t -> Name_cache.stats
val stats : t -> stats
