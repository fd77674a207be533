(** The standard run-time library (paper §6): the procedural interface V
    programs use, hiding the message interface.

    Every CSname routine goes through one common routing routine: a name
    starting with '[' goes to the workstation's context prefix server
    (in its default context); any other name goes directly to the server
    implementing the current context, with the current context id filled
    into the message. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

(** A program's naming environment: its current context, its
    workstation's prefix server, and the optional client-side
    name-resolution cache (an ablation §2.2 argues against, here made
    safe by on-use validation). *)
type env

(** Build the environment for a program passed its [current] context;
    binds the workstation's (Local-scope) prefix service. *)
val make : Vmsg.t Kernel.self -> current:Context.spec -> (env, Vio.Verr.t) result

val self : env -> Vmsg.t Kernel.self
val engine : env -> Vsim.Engine.t
val current_context : env -> Context.spec
val set_current_context : env -> Context.spec -> unit

(** {1 The client resilience policy}

    With a policy set, every named operation ({!open_} included)
    re-issues retryable failures ([Ipc Timeout], stale pids,
    [Denied Retry] — see {!Vio.Resilience.retryable}) after a jittered
    exponential backoff, within a per-operation deadline.
    Re-issuing routes afresh, so a crashed server's restarted successor
    is found by GetPid re-resolution through the prefix server's
    logical bindings; a current context bound with {!change_context} is
    likewise re-resolved by its name on transport-level retries, so
    relative names fail over too. All attempts run under one obs root
    span, tagged ["fault"]/["retry:n"]. When the policy gives up, the
    caller sees
    {!Vio.Verr.Unavailable} (bounded) rather than an indefinite hang.
    The client stub's CPU ({!Vnet.Calibration.client_stub_cpu}) is
    charged once per operation, before its root span opens, however
    many attempts it takes.

    Off by default; with it off, behaviour and PRNG draws are exactly
    the seed's, so fault-free runs stay bit-identical. [seed] drives
    backoff jitter only — a fixed seed replays the exact retry
    schedule. *)

val set_resilience :
  env -> ?policy:Vio.Resilience.policy -> seed:int -> unit -> unit

val resilience : env -> Vio.Resilience.policy option

type resilience_stats = {
  mutable retries : int;  (** re-issued attempts *)
  mutable retried_ok : int;  (** operations succeeding after >= 1 retry *)
  mutable unavailable : int;  (** operations surfaced as [Unavailable] *)
}

(** Live counters (also exported as (workstation, "runtime", "retry" |
    "retry-ok" | "unavailable") metrics when a hub is attached). *)
val resilience_stats : env -> resilience_stats

(** {1 Naming operations} *)

(** Map a name denoting a context to its (server-pid, context-id). *)
val resolve : env -> string -> (Context.spec, Vio.Verr.t) result

(** Resolve and make current — the analogue of Unix chdir (§6). *)
val change_context : env -> string -> (Context.spec, Vio.Verr.t) result

(** A printable CSname for the current context (§6 inverse mapping):
    the prefix server's name for it if one matches, otherwise the
    implementing server's local path. *)
val current_context_name : env -> (string, Vio.Verr.t) result

(** {1 File-like access (the I/O protocol over the naming layer)} *)

(** Create an instance of [name] in [mode] (CreateInstance): one more
    named operation, routed, cached, retried and traced as every other
    one is. The instance's server is the process that answered, which
    after forwarding may not be the one the request was first sent to. *)
val open_ :
  env -> mode:Vmsg.open_mode -> string -> (Vio.Client.remote_instance, Vio.Verr.t) result

val read_file : env -> string -> (bytes, Vio.Verr.t) result
val write_file : env -> string -> bytes -> (unit, Vio.Verr.t) result
val append_file : env -> string -> bytes -> (unit, Vio.Verr.t) result

(** Read the context directory of a name (§5.6). *)
val list_directory : env -> string -> (Descriptor.t list, Vio.Verr.t) result

(** {1 Object operations (§5.5, §5.7)} *)

val query : env -> string -> (Descriptor.t, Vio.Verr.t) result
val modify : env -> string -> Descriptor.t -> (unit, Vio.Verr.t) result
val create : env -> ?directory:bool -> string -> (unit, Vio.Verr.t) result
val remove : env -> string -> (unit, Vio.Verr.t) result

(** [new_name] is interpreted relative to the old name's final context,
    within the same server. *)
val rename : env -> string -> new_name:string -> (unit, Vio.Verr.t) result

(** Copy a file by name, possibly across servers. *)
val copy : env -> src:string -> dst:string -> (unit, Vio.Verr.t) result

(** {1 Prefix management} *)

val add_prefix :
  env ->
  string ->
  [ `Static of Context.spec | `Logical of int * Context.id ] ->
  (unit, Vio.Verr.t) result

val delete_prefix : env -> string -> (unit, Vio.Verr.t) result

(** Define a cross-server context pointer: a name in one (storage)
    context pointing at a context on another server (Figure 4). *)
val link : env -> string -> target:Context.spec -> (unit, Vio.Verr.t) result

(** {1 The client-side caches}

    At most one cache answers for a '[prefix]'-absolute name: the
    caching resolver (below) for the names it
    {!Vdomains.Resolver.handles}, else the name cache while it is on,
    else none. Relative names are never cached. Routing consults only
    that cache, the binding a server stamps into a successful reply is
    learned only into it, and on-use invalidation reaches only it: a
    [Bad_context]/[Not_found]/IPC failure on a binding it supplied
    evicts the binding there and routes the name again through it.

    {2 The name cache}

    A bounded LRU of name-prefix -> (server-pid, context-id) bindings,
    keyed on the deepest prefix of a name that ends at a component
    boundary, without a TTL. Bindings are learned from reply stamps, so
    forward chains teach the client where interpretation landed, for
    free. After an eviction the operation falls back one prefix level
    (the next-deepest cached prefix, or the prefix server) and retries;
    a final IPC failure once the cached binding is gone gets one
    uncached pass through the prefix server.

    Off by default — with it off, routing behaviour is exactly the
    paper's (§2.2 argues against client-side name caching; the on-use
    protocol is this repo's answer to the inconsistency objection).

    Hit/miss/stale/eviction counts are exported through [Vobs.Metrics]
    under (workstation, "runtime", "cache-hit" | "cache-miss" |
    "cache-stale" | "cache-evict" | "cache-learn") whenever an
    observability hub is attached, and through {!name_cache_stats}. *)

(** Enable or disable the cache; [?capacity] replaces the cache with a
    fresh one of that capacity (default {!Vnaming.Name_cache.default_capacity}).
    Disabling clears the entries but keeps the counters. *)
val enable_name_cache : env -> ?capacity:int -> bool -> unit

val name_cache_enabled : env -> bool
val name_cache_stats : env -> Vnaming.Name_cache.stats

(** The cache itself (inspection: tests, vsh). *)
val name_cache : env -> Vnaming.Name_cache.t

(** {2 The caching resolver role (federated name domains)}

    With a {!Vdomains.Resolver} installed, '[prefix]'-absolute names
    the resolver handles are routed by an iterative walk of the
    federated domain tree — root to leaf, following delegation
    referrals, with TTL / negative / stale-serving caching — instead of
    through the prefix server. All other names route exactly as before;
    with no resolver set, behaviour and PRNG draws are bit-identical to
    the seed. Bindings servers stamp into successful replies feed the
    resolver's cache under its TTL.

    An authoritative negative — a [Not_found]/[Bad_context] answer from
    the tree, or from the resolver's fresh negative entry — is the
    operation's answer, and nothing more is sent. Any other resolver
    failure (an unreachable tree, a delegation cycle, the step limit)
    falls back to the prefix server. A binding the resolver supplied
    that demonstrably failed is invalidated and re-derived by a fresh
    walk, once; if that fails too, the operation takes the uncached
    prefix-server route of last resort.

    Routing counters land under (workstation, "runtime",
    "resolver-hit" | "resolver-walk" | "resolver-stale" |
    "resolver-fallback"). *)

val set_resolver : env -> Vdomains.Resolver.t -> unit
val clear_resolver : env -> unit
