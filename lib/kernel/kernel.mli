(** The distributed V kernel (paper §3–§4).

    A [domain] is a set of logical hosts on one simulated Ethernet over
    which the IPC primitives are transparent — one V-System
    installation. Every V process is a simulated fiber; [send] blocks
    until the reply arrives (the message transaction of Figure 1).

    The kernel is parametric in the message type ['m]; it charges
    wire/CPU costs through a {!cost_model} but never inspects message
    contents, mirroring the real kernel's independence from the message
    standards built above it. *)

type error =
  | Timeout  (** destination unreachable (crash, partition) *)
  | Nonexistent_process  (** the pid names no live process *)
  | Not_awaiting_reply  (** Reply/Forward/Move for a process not being served *)
  | Bad_buffer  (** Move outside the buffer the sender exposed *)
  | No_reply  (** group Send that no member answered *)

val pp_error : Format.formatter -> error -> unit

exception Ipc_error of error

(** Raised by [spawn] on a crashed host. *)
exception Host_is_down of string

type 'm cost_model = {
  payload_bytes : 'm -> int;
      (** bytes carried on the wire beyond the 32-byte message proper *)
  segment_bytes : 'm -> int;
      (** portion that must be copied into the receiver's space (e.g. an
          appended CSname); charged segment-copy CPU on remote legs *)
}

type 'm domain
type 'm host

(** A process's own handle; required by every blocking primitive and
    valid only inside the fiber [spawn] started. *)
type 'm self

(** {1 Domain and hosts} *)

type 'm packet

(** [hosts_hint] presizes the domain-wide host tables for large soaks
    (per-host tables are unaffected); purely a capacity hint, never
    behaviour. *)
val create_domain :
  ?seed:int ->
  ?hosts_hint:int ->
  cost:'m cost_model ->
  Vsim.Engine.t ->
  'm packet Vnet.Ethernet.t ->
  'm domain

(** Attach a new logical host at a network address and start its kernel. *)
val boot_host : 'm domain -> name:string -> Vnet.Ethernet.addr -> 'm host

val host_of_addr : 'm domain -> Vnet.Ethernet.addr -> 'm host option
val hosts : 'm domain -> 'm host list
val host_addr : 'm host -> Vnet.Ethernet.addr
val host_logical : 'm host -> int
val host_name : 'm host -> string
val host_is_up : 'm host -> bool
val domain_of_host : 'm host -> 'm domain
val engine_of_domain : 'm domain -> Vsim.Engine.t

(** Attach an observability hub to the domain and its wire, the one
    attach call. Every kernel and wire site reports one event into the
    hub's {!Vobs.Hub.stream} (Figure 1 timeline, flight recorder,
    telemetry pump) and counts it per host or port; each read of the
    hub's registry scrapes those counts in (see
    {!Vobs.Metrics.add_source}). The naming layers above use the hub
    for spans. Bookkeeping only — never advances simulated time. *)
val set_obs : 'm domain -> Vobs.Hub.t -> unit

val obs : 'm domain -> Vobs.Hub.t option

(** Install the accessor extracting the obs trace id riding inside a
    message (0 = untraced), used to stamp flight-recorder events. The
    kernel never inspects messages itself; the deployment, which knows
    the message type, provides the accessor. Default: everything
    untraced. *)
val set_trace_of : 'm domain -> ('m -> int) -> unit

(** Completed + in-flight Send/group-Send transactions, for the
    messages-per-operation benchmarks. *)
val ipc_transaction_count : 'm domain -> int

(** {1 The telemetry pump}

    Scale telemetry rides the IPC hot path: with a hub attached and its
    pump armed, the first kernel send at or after each [interval_ms] of
    simulated time snapshots fleet counters, the fabric's interior
    links and every admission-protected server queue into the hub's
    time-series store ({!Vobs.Hub.timeseries}). The pump only records —
    it schedules nothing and advances nothing, so the engine executes
    an identical event sequence with telemetry on or off. *)

(** [enable_telemetry d ~interval_ms] arms the attached hub's pump
    ({!Vobs.Stream.arm_pump}) and groups the hub's metrics store by the
    domain's topology ({!Vobs.Metrics.set_groups}): kernel host names
    group by edge switch (switched fabric) or 1024-host address shard
    (shared medium); net-layer labels ("host3", "edge0->spine") resolve
    through {!Vnet.Topology.rollup_scope}; anything else reaches the
    fleet level only. A no-op without a hub.
    @raise Invalid_argument on a non-positive interval. *)
val enable_telemetry : 'm domain -> interval_ms:float -> unit

(** Disarm the pump and ungroup the hub's metrics store. *)
val disable_telemetry : 'm domain -> unit

val telemetry_enabled : 'm domain -> bool

(** Kill a host: processes die, tables clear, the wire stops delivering.
    Pids minted there become permanently invalid. *)
val crash_host : 'm host -> unit

(** Bring a crashed host back with a fresh logical-host id (old pids
    stay dead). Servers must re-register their services. *)
val restart_host : 'm host -> unit

(** {1 Processes} *)

(** [spawn host ~name body] creates a process and runs [body] as a
    fiber. The process ends when [body] returns or raises, and its
    record goes as {!destroy_process} describes. *)
val spawn : 'm host -> ?name:string -> ('m self -> unit) -> Pid.t

val self_pid : 'm self -> Pid.t

(** The name the process was spawned with. *)
val self_name : 'm self -> string

val self_host_name : 'm self -> string
val host_of_self : 'm self -> 'm host
val domain_of_self : 'm self -> 'm domain
val alive : 'm domain -> Pid.t -> bool
val find_process : 'm domain -> Pid.t -> 'm self option

(** Kill one process. Its blocked kernel call, if it has one, ends now:
    the fiber unwinds with [Vsim.Proc.Killed] in one event at this
    instant, and the call's transaction record and its timer go, so a
    killed sender stops retransmitting. Otherwise the fiber unwinds at
    its next kernel call. Each transaction the process was serving or
    had queued fails with [Nonexistent_process], in txn order, if its
    sender is on the same host; a sender on another host learns of it
    from its retransmission's nack. A group delivery fails nothing,
    since another member may answer. The same happens to a process
    whose body returns or raises. [false] if the pid names no live
    process. *)
val destroy_process : 'm domain -> Pid.t -> bool

(** {1 Message transactions (Figure 1)} *)

(** [send self target msg] blocks until the reply, returning it together
    with the replier's pid — which, after forwarding, may differ from
    [target]; this is how a client learns which server actually
    implements an object it opened. [buffer] is memory exposed to the
    receiver's MoveTo/MoveFrom for the transaction. *)
val send : 'm self -> ?buffer:bytes -> Pid.t -> 'm -> ('m * Pid.t, error) result

(** Block until any message arrives; returns (message, sender). *)
val receive : 'm self -> 'm * Pid.t

(** Complete the transaction of blocked sender [to_]. *)
val reply : 'm self -> to_:Pid.t -> 'm -> (unit, error) result

(** Pass the transaction on: [to_] sees [msg] as sent by [from_] and
    replies directly to [from_] — the mechanism multi-server name
    interpretation rides on (§5.4). *)
val forward : 'm self -> from_:Pid.t -> to_:Pid.t -> 'm -> (unit, error) result

(** {1 Admission control (overload protection)}

    Off by default: a process without a hook pays one extra word test
    on the request path and behaves exactly as before. The kernel owns
    the {e mechanism} — two queues per protected process (interactive
    ahead of bulk), a counter pair, and a kernel-level rejection reply
    sent on the server's behalf without scheduling its fiber. The
    {e policy} (queue caps, deadline-aware drop, lane classification,
    retry-after hints) lives above the kernel in [Vservices.Admission],
    where the message type is understood.

    Group (multicast) deliveries bypass admission deliberately: a
    fan-out member that silently shed a group write would diverge from
    its peers. *)

(** What the admission hook decided about an incoming request. *)
type 'm admission_verdict =
  | Admit  (** enqueue on the interactive lane *)
  | Admit_bulk  (** enqueue on the bulk lane, served after interactive *)
  | Shed of 'm
      (** reject now: the kernel replies with this message on the
          server's behalf, without scheduling the server's fiber *)

(** [set_admission d pid decide] installs (or replaces) the admission
    hook on [pid]. [decide ~now ~depth msg] sees the simulated time and
    the total queued depth (both lanes) {e before} [msg] is enqueued.
    Replacing a live hook keeps the bulk queue and counters. No-op for
    unknown pids. *)
val set_admission :
  'm domain ->
  Pid.t ->
  (now:float -> depth:int -> 'm -> 'm admission_verdict) ->
  unit

(** Remove the hook; queued bulk work drains back into the main queue. *)
val clear_admission : 'm domain -> Pid.t -> unit

(** Undelivered requests queued at [pid] (both lanes); 0 for unknown
    pids. *)
val queue_depth : 'm domain -> Pid.t -> int

(** [(admitted, shed)] since the hook was installed; [(0, 0)] without
    one. *)
val admission_counters : 'm domain -> Pid.t -> int * int

(** {1 Bulk transfer} *)

(** Read [len] bytes from the buffer the blocked [sender] exposed. *)
val move_from : 'm self -> sender:Pid.t -> len:int -> (bytes, error) result

(** Write [data] into the blocked [sender]'s exposed buffer. *)
val move_to : 'm self -> sender:Pid.t -> bytes -> (unit, error) result

(** {1 Service naming (§4.2)} *)

(** Register [pid] as providing [service] in the given scope on this
    host. A later registration with the same scope replaces the old;
    Local and Remote registrations coexist. *)
val set_pid : 'm host -> service:int -> Pid.t -> Service.scope -> unit

(** Look up a service: the local table first, then (unless scope is
    [Local]) a broadcast query answered by the first kernel with a
    Remote/Both registration. No result is cached: each call looks the
    service up afresh. *)
val get_pid : 'm self -> service:int -> Service.scope -> Pid.t option

(** {1 Process groups and multicast Send (§7)} *)

val create_group : 'm domain -> int
val join_group : 'm host -> group:int -> Pid.t -> unit
val leave_group : 'm host -> group:int -> Pid.t -> unit

(** The pids that joined [group] on this host, whether or not they are
    still alive. A crash clears every group on the host. *)
val local_group_members : 'm host -> group:int -> Pid.t list

(** Multicast to the group; blocks for the first reply, which is
    returned with the replier's pid. Later replies are discarded. *)
val send_group : 'm self -> group:int -> 'm -> ('m * Pid.t, error) result

(** Forward the transaction of blocked sender [from_] to every member of
    a group; the first member to reply completes it (§7: a context
    implemented transparently by a group of servers). *)
val forward_group :
  'm self -> from_:Pid.t -> group:int -> 'm -> (unit, error) result

(** {1 Replicated services (§7: a service implemented by a group)}

    A logical service id may be bound, domain-wide, to a process group.
    While the binding is in place, [get_pid] for that service returns
    one live reachable member, chosen round-robin in address order —
    ahead of the broadcast path, but after the local service table. The
    round-robin cursor is seeded from the domain PRNG once at
    registration, so a run that never registers a group draws nothing
    and replays bit-identically. *)

val register_service_group : 'm domain -> service:int -> group:int -> unit

(** Remove the service→group binding; [get_pid] reverts to the ordinary
    cache/broadcast path. *)
val clear_service_group : 'm domain -> service:int -> unit

val service_group : 'm domain -> service:int -> int option

(** The live members of [service]'s group visible from [requester]: on
    an up host, not partitioned away from it, process alive — sorted by
    (address, local pid) so every host enumerates them identically.
    Empty when the service has no group. Visits only the hosts that
    joined the group: O(members), independent of the installation's
    size. *)
val service_group_members :
  'm domain -> requester:Vnet.Ethernet.addr -> service:int -> Pid.t list

(** Append a PENDING write to the service's ordered write-all log,
    keyed by the coordinator's (origin, seq), before the fan-out's
    first send — so a concurrent catch-up can see (and wait out) the
    in-flight write. Resolve it with {!commit_group_write} once some
    member may have applied it, or {!abort_group_write} when the
    fan-out failed definitively everywhere. The log is capped at 1024
    live entries, pending ones included: an append past the cap trims
    the committed entries older than the newest 1024, retaining their
    per-origin high-water mark ({!group_write_trimmed}), while pending
    entries that old stay as stragglers — still counted against the
    cap — until a later append finds them committed. Append, commit
    and abort are O(1) amortised plus the straggler count. No-ops when
    the service has no group. *)
val log_group_write :
  'm domain -> service:int -> origin:int -> seq:int -> 'm -> unit

(** Mark a pending entry committed: some member answered the write, or
    a send failed ambiguously (the member may have applied it with the
    reply frame lost), so replay must eventually deliver it to every
    member. *)
val commit_group_write :
  'm domain -> service:int -> origin:int -> seq:int -> unit

(** Remove a pending entry whose fan-out failed definitively on every
    member: no replica saw it, so nothing may ever replay it (the
    coordinator is then free to reuse the sequence number). *)
val abort_group_write :
  'm domain -> service:int -> origin:int -> seq:int -> unit

(** The committed entries, oldest first. *)
val group_write_log : 'm domain -> service:int -> (int * int * 'm) list

(** Is any logged write still pending (fan-out in flight)? A catch-up
    must not declare itself complete while this holds. *)
val group_write_pending : 'm domain -> service:int -> bool

(** Per-origin highest sequence number trimmed out of the capped log,
    sorted by origin. A member whose durable applied mark for an origin
    is below that origin's trim mark cannot catch up by replay. *)
val group_write_trimmed : 'm domain -> service:int -> (int * int) list
