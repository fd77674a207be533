(** Simulated network fabric.

    Two topologies behind one interface: the paper's single shared wire
    ({!Topology.Shared_medium}, the default — transmissions serialize on
    one medium), and a two-tier switched fabric ({!Topology.Switched} —
    each directed link carries traffic independently, switches
    store-and-forward with bounded per-port output queues).

    The payload type is abstract so the network layer sits below the
    kernel, which instantiates it with its own packet type. Host CPU
    costs are charged by the kernel; this layer charges queueing +
    transmission + propagation (+ per-switch forwarding in the switched
    fabric) only. *)

type addr = int

type dest = Unicast of addr | Broadcast | Multicast of int

val pp_dest : Format.formatter -> dest -> unit

type 'a frame = { src : addr; dst : dest; payload : 'a; payload_bytes : int }

type counters = {
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable frames_dropped : int;
  mutable bytes_sent : int;
}

(** Per-link snapshot of the switched fabric (see {!link_stats}). *)
type link_stat = {
  ls_label : string;  (** {!Topology.link_label} of the directed link *)
  ls_up : bool;
  ls_frames : int;  (** frames serialized onto the link *)
  ls_drops : int;  (** tail drops at a full port + drops on a down link *)
  ls_queued : int;  (** frames currently occupying the port *)
  ls_queue_peak : int;
  ls_busy_ms : float;  (** cumulative serialization time *)
  ls_extra_ms : float;  (** slow-link injected latency per hop *)
}

type 'a t

exception Duplicate_host of addr

(** [create ~config engine] is a network with no attached hosts. [seed]
    drives loss-injection draws only. [topology] defaults to
    {!Topology.Shared_medium}, which reproduces the single-wire model
    exactly. [queue_cap] bounds each directed link's output queue in the
    switched fabric (default 256 frames; ignored on the shared medium).
    Raises [Invalid_argument] when [queue_cap < 1]. *)
val create :
  ?seed:int ->
  ?topology:Topology.t ->
  ?queue_cap:int ->
  config:Calibration.network ->
  Vsim.Engine.t ->
  'a t

(** [attach_hub t hub] makes the wire report into [hub]: each site
    (frame transmitted, lost or dropped; link, loss, slow-host and
    partition changes) emits one event into the hub's
    {!Vobs.Hub.stream}, and each read of the hub's registry scrapes the
    per-port counts in (server "net", hosts keyed ["host<addr>"]).
    {!Vkernel.Kernel.set_obs} calls this for its domain's wire. *)
val attach_hub : 'a t -> Vobs.Hub.t -> unit

val config : 'a t -> Calibration.network

(** Time on the wire for a frame carrying [payload_bytes]. *)
val transmission_ms : Calibration.network -> payload_bytes:int -> float

val topology : 'a t -> Topology.t

(** Per-link output-queue bound; [None] on the shared medium. *)
val queue_capacity : 'a t -> int option

val counters : 'a t -> counters
val engine : 'a t -> Vsim.Engine.t

(** [attach t addr handler] connects a host; [handler] runs at frame
    arrival time. Raises {!Duplicate_host} if [addr] is taken. *)
val attach : 'a t -> addr -> ('a frame -> unit) -> unit

val set_handler : 'a t -> addr -> ('a frame -> unit) -> unit

(** A crashed ([false]) host neither sends nor receives. *)
val host_up : 'a t -> addr -> bool

val set_host_up : 'a t -> addr -> bool -> unit

(** Attached host addresses, ascending. *)
val hosts : 'a t -> addr list

(** Hosts subscribed to a multicast group, ascending. *)
val group_members : 'a t -> int -> addr list

(** [fold_group t group f init] folds [f] over the hosts subscribed to
    [group], in unspecified order, without building a list. Costs
    O(subscribers), not O(hosts). *)
val fold_group : 'a t -> int -> (addr -> 'acc -> 'acc) -> 'acc -> 'acc

val join_group : 'a t -> group:int -> addr:addr -> unit
val leave_group : 'a t -> group:int -> addr:addr -> unit

(** Probability that an arriving frame is dropped. Raises
    [Invalid_argument] outside [0, 1]. Changes are recorded in the
    attached trace and exported as the ("net", "net",
    "loss-probability") metrics gauge so fault plans can be audited. *)
val set_loss_probability : 'a t -> float -> unit

val loss_probability : 'a t -> float

(** Slow-host fault injection: every frame arriving at [addr] is held
    [ms] extra simulated milliseconds before the host's handler runs
    (liveness is re-checked at the deferred time). [0.0] — the default —
    restores the undelayed path. Raises [Invalid_argument] on a negative
    value or an unknown host. *)
val set_extra_latency : 'a t -> addr -> float -> unit

(** Block frames between two hosts (both directions). *)
val partition : 'a t -> addr -> addr -> unit

val heal : 'a t -> addr -> addr -> unit
val partitioned : 'a t -> addr -> addr -> bool

(** {1 Link faults (switched fabric only)}

    Links are directed: cutting [a -> b] leaves [b -> a] carrying
    traffic. These raise [Invalid_argument] on the shared medium or when
    the pair is not a link of the configured topology. *)

(** Cut ([false]) or restore ([true]) a directed link. Frames hopping
    onto a down link are dropped and counted. *)
val set_link_up : 'a t -> Topology.node -> Topology.node -> bool -> unit

(** Is the directed link up? [true] for every link of the shared medium
    and for valid links never touched by {!set_link_up}; [false] for
    pairs that are not links of the topology. *)
val link_up : 'a t -> Topology.node -> Topology.node -> bool

(** Slow-link fault injection: add [ms] to every frame's traversal of
    the directed link. [0.0] restores the clean link. Raises
    [Invalid_argument] on a negative value. *)
val set_link_extra_latency :
  'a t -> Topology.node -> Topology.node -> float -> unit

(** Can frames currently flow from [a] to [b]? Host-pair partitions
    apply on both topologies; the switched fabric additionally requires
    every directed link on the path to be up. The kernel's reachability
    probes use this, so a cut uplink looks like a partition to IPC.
    Allocation-free while no partition is in force and no link is down;
    otherwise it reads the (at most four) path links in place. *)
val reachable : 'a t -> addr -> addr -> bool

(** Snapshot of every materialized link (a link materializes the first
    time a frame hops onto it or a fault touches it), sorted by label.
    Empty on the shared medium. *)
val link_stats : 'a t -> link_stat list

(** Export per-segment gauges — ("<link>", "net", "utilization-pct" /
    "queue-peak" / "drops") — to the attached hub. Idempotent; call at
    sampling points. No-op without a hub or on the shared medium. *)
val export_link_metrics : 'a t -> unit

(** [sample_timeseries t ts ~now] feeds the fabric's interior
    (edge<->spine) links into a time-series store: per-link utilization
    over the interval since the previous sample (gauge, the heatmap
    row), instantaneous queue occupancy (gauge) and cumulative drops
    (counter), under "link/<label>/..." names. Interior-only keeps the
    series count O(edges). Call at sampling points (the kernel
    telemetry pump); no-op on the shared medium. *)
val sample_timeseries : 'a t -> Vobs.Timeseries.t -> now:float -> unit

(** One-line audit summary: topology, host count, loss probability,
    partition count, per-host slow-host latencies, down links, frame
    counters. *)
val pp : Format.formatter -> 'a t -> unit

(** Queue a frame for transmission. Broadcast frames are not delivered
    back to the sender. Delivery respects liveness at arrival time,
    partitions, the loss probability, link liveness and per-port queue
    bounds. On the switched fabric the frame is replicated at switches
    (one copy per outgoing link), and the loss draw happens once per
    frame as it clears the source uplink. *)
val transmit : 'a t -> 'a frame -> unit
