(** A fault plan: pure, seed-deterministic data describing what breaks
    when — host crash/restart, pairwise partition/heal, network loss
    bursts, slow-host latency inflation. {!generate} never touches an
    engine or clock, so a seed replays the identical plan; applying a
    plan is {!Injector}'s job. *)

module Ethernet = Vnet.Ethernet
module Topology = Vnet.Topology

type link = Topology.node * Topology.node
(** One directed link of a {!Topology.Switched} fabric. *)

type action =
  | Crash of Ethernet.addr
  | Restart of Ethernet.addr
  | Partition of Ethernet.addr * Ethernet.addr
  | Heal of Ethernet.addr * Ethernet.addr
  | Loss of float  (** set the network loss probability *)
  | Slow of Ethernet.addr * float  (** extra receive latency ms; 0 restores *)
  | Link_cut of link  (** cut one directed link (switched fabric) *)
  | Link_heal of link
  | Link_slow of link * float  (** extra per-hop latency ms; 0 restores *)

type event = { at : float; action : action }

type t = { seed : int; events : event list }
(** [events] sorted by [at]; simultaneous events keep construction
    order. *)

val pp_action : Format.formatter -> action -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

(** Render the full plan — the replay-identity artifact two same-seed
    runs must agree on byte-for-byte. *)
val to_string : t -> string

val to_json : t -> Vobs.Json.t

(** Sort loose events into a plan. *)
val of_events : ?seed:int -> event list -> t

(** {1 Episode combinators} — each returns the fault and its recovery. *)

val crash_restart :
  addr:Ethernet.addr -> at:float -> downtime_ms:float -> event list

val partition_heal :
  a:Ethernet.addr -> b:Ethernet.addr -> at:float -> duration_ms:float -> event list

val loss_burst : at:float -> duration_ms:float -> p:float -> event list

val slow_host :
  addr:Ethernet.addr -> at:float -> duration_ms:float -> ms:float -> event list

(** {1 Seeded generation}

    A randomized sequence of episodes between [warmup_ms] and 90% of
    [duration_ms], with exponential gaps of mean [mean_gap_ms]. Loss
    bursts (at 5% or 20%) are always drawn; the other fault kinds only
    when their host lists are non-empty. Every fault is paired with its
    recovery and every episode completes before the horizon, so a
    generated plan always converges: by [duration_ms] all hosts are up,
    partitions healed, loss zero and no host slowed. Link faults are
    never drawn; a switched-fabric plan adds them with {!of_events}. *)
val generate :
  seed:int ->
  duration_ms:float ->
  ?warmup_ms:float ->
  ?mean_gap_ms:float ->
  ?crashable:Ethernet.addr list ->
  ?partitionable:Ethernet.addr list ->
  ?slowable:Ethernet.addr list ->
  unit ->
  t
