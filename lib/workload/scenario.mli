(** Scenario builder: the paper's standard installation (§6) — diskless
    workstations each running a context prefix server, virtual terminal
    server, program manager and exception server; shared file servers; a
    printer; a mail server; an internet gateway; a time server. Standard
    per-user prefixes ([storage], [home], [bin], [printer], [mail],
    [internet], [terminals], [fsN]) are installed on every
    workstation. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Ethernet = Vnet.Ethernet
module Domain_server = Vdomains.Domain_server
open Vnaming
open Vservices

type workstation = {
  ws_index : int;
  ws_name : string;
  ws_host : Vmsg.t Kernel.host;
  ws_prefix : Prefix_server.t;
  ws_terminal : Terminal_server.t;
  ws_vgts : Vgts.t;
  ws_programs : Program_manager.t;
  ws_exceptions : Exception_server.t;
}

type t = {
  engine : Vsim.Engine.t;
  net : Vmsg.t Kernel.packet Ethernet.t;
  domain : Vmsg.t Kernel.domain;
  workstations : workstation array;
  file_servers : File_server.t array;
  printer : Printer_server.t;
  mail : Mail_server.t;
  internet : Internet_server.t;
  time_pid : Pid.t;
  local_fs : File_server.t option;
      (** a file server co-resident with one workstation (§6's
          local-vs-remote measurements), when requested *)
  prng : Vsim.Prng.t;
  obs : Vobs.Hub.t;
      (** the installation's observability hub: metrics always, spans
          when built with [~tracing:true] *)
}

(** Network address plan (exposed for fault injection in tests and
    benchmarks). *)
val ws_addr : int -> Ethernet.addr

val fs_addr : int -> Ethernet.addr
val printer_addr : Ethernet.addr
val mail_addr : Ethernet.addr

(** The address of domain server [i] in {!domain_chain}. *)
val dom_addr : int -> Ethernet.addr

(** Build the installation; nothing runs until the engine does.
    [local_file_server_on] additionally runs a Local-scope file server
    process on that workstation, bound to the "[localfs]" prefix.
    [tracing] turns on distributed tracing in the installation's
    observability hub (simulated timings are unaffected). [topology]
    selects the network fabric (default the paper's shared wire). [cost]
    is the kernel's cost model (default {!Vnaming.Vmsg.cost_model}); a
    test wraps it to see every message that crosses the wire. *)
val build :
  ?config:Vnet.Calibration.network ->
  ?cost:Vmsg.t Kernel.cost_model ->
  ?topology:Vnet.Topology.t ->
  ?workstations:int ->
  ?file_servers:int ->
  ?local_file_server_on:int ->
  ?seed:int ->
  ?tracing:bool ->
  unit ->
  t

val workstation : t -> int -> workstation
val file_server : t -> int -> File_server.t

(** {1 Installation shapes}

    Each raises [Invalid_argument] if its configuration is refused. *)

(** Join fs0 … fs([factor]−1) into a replica set
    ({!Vservices.Replica.install}) and bind "[rstore]" to it on every
    workstation. *)
val install_replicas : t -> factor:int -> Replica.t

(** Boot a chain of [depth] domain servers, each on the host at
    [dom_addr i], booted unless one is there already: dom0, the root,
    delegates "d1" to dom1, dom1 delegates "d2" to dom2, …, and the
    last binds "leaf" into fs0's root context. Returns the servers, root
    first. *)
val domain_chain : t -> depth:int -> Domain_server.t array

(** Destroy the processes of a chain {!domain_chain} returned, leaving
    their hosts up: nothing it delegated answers any more, and a later
    [domain_chain] starts a fresh chain on the same hosts. *)
val remove_domain_chain : t -> Domain_server.t array -> unit

(** Revive the crashed file server at [addr] and store the successor in
    [t.file_servers]: a member of [replicas] through
    {!Vservices.Replica.revive}, any other through
    {!Vservices.File_server.restart_from} over its surviving disk.
    Nothing happens if [addr] holds no file server or no host. *)
val restart_file_server : ?replicas:Replica.t -> t -> Ethernet.addr -> unit

(** Run [body] as a client process on workstation [ws] with a standard
    run-time environment. *)
val spawn_client :
  t ->
  ws:int ->
  ?name:string ->
  ?current:Context.spec ->
  (Vmsg.t Kernel.self -> Vruntime.Runtime.env -> unit) ->
  Pid.t

(** Run the simulation to quiescence (or a time horizon, ms). *)
val run : ?until:float -> t -> unit
