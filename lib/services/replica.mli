(** Replicated directory service management (§7).

    A replica set is N file servers joined into one process group and
    registered, domain-wide, under one logical service id: GetPid
    returns one live member via the kernel balancer (read-one), the
    coordinating prefix server fans CSNH writes out to every member
    (write-all). This module wires the pieces together; the protocol
    lives in {!Vkernel.Kernel}, {!Vnaming.Prefix_server} and
    {!Vnaming.Seq_guard}. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Ethernet = Vnet.Ethernet
open Vnaming

type t

(** Join [members] into a fresh process group and bind it to [service]
    (default {!Service.Id.replica_storage}); GetPid picks among them
    round-robin. Members register the service with [Remote] scope so
    lookups on their own hosts still balance. *)
val install :
  Vmsg.t Kernel.domain ->
  ?service:int ->
  members:(Vmsg.t Kernel.host * File_server.t) list ->
  unit ->
  t

(** Drop the service→group binding; GetPid reverts to broadcast. *)
val uninstall : t -> unit

(** [protect t ps] overload-protects the replica set: every member gets
    the {!Admission.file_server} policy (stamped fan-out writes always
    admitted) and the coordinating prefix server [ps] gets
    {!Admission.coordinator} sized to the replication factor — the one
    place replicated-write backpressure is applied. Survives
    {!revive}. *)
val protect : t -> Prefix_server.t -> unit

val service : t -> int
val group : t -> int
val factor : t -> int

(** Members sorted by host address. *)
val members : t -> (Ethernet.addr * File_server.t) list

val member_pids : t -> Pid.t list
val find_member : t -> Ethernet.addr -> File_server.t option

(** The prefix-binding target clients should use: logical, so every use
    re-resolves through GetPid and the balancer. *)
val target : t -> Prefix_server.target

(** Revive the member on [addr] after a crash: restart it over the
    surviving disk, replay the group write log to it (its {!Seq_guard}
    skips already-applied writes and applies the rest in order),
    re-reading the log each round for entries logged since, and rejoin
    it to the group in the same event step as the round that finds no
    new entry: the balancer never sees a member that has not caught up,
    and each write is either logged before that round and replayed, or
    fanned out to the rejoined member. The rejoin is abandoned if the
    capped log has trimmed writes this member never applied, or if a
    replay send fails persistently. Returns the fresh server, or [None]
    if [addr] holds no member. *)
val revive : t -> Ethernet.addr -> File_server.t option

(** Replay the group write log to every live member — the
    convergence pass to run when a partition heals. A member that was
    partitioned from a coordinator missed that coordinator's fan-outs
    (and has been refusing all later writes as out-of-order since);
    replay from a process on its own host delivers the missed writes in
    order. Members that missed nothing answer every entry from their
    dedup guards. *)
val sync : t -> unit
