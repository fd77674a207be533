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
