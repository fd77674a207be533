(** Client side of the V I/O protocol (paper §3.2).

    These stubs operate on an already created (opened) instance;
    creating one from a CSname is the naming layer's job
    ([Vruntime.Runtime]). The pid of the server that actually implements
    the instance is learned from the Open reply — after forwarding it
    may differ from the process the request was first sent to. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

(** An open instance: the implementing server plus the instance info the
    Open reply carried. *)
type remote_instance = { server : Pid.t; info : Vnaming.Vmsg.instance_info }

val instance_id : remote_instance -> int
val size : remote_instance -> int
val block_size : remote_instance -> int

(** Send [msg] to [server] and check the reply with {!Verr.of_reply}:
    the successful reply and the pid that answered, or the failure it
    encodes (a shed as [Verr.Busy]). Every client stub checks its
    replies this way. It charges no CPU: the run-time charges the
    client stub once per named operation, however many attempts it
    sends through here. *)
val transact :
  Vnaming.Vmsg.t Kernel.self ->
  server:Pid.t ->
  Vnaming.Vmsg.t ->
  (Vnaming.Vmsg.t * Pid.t, Verr.t) result

(** The instance stubs below each charge the client stub's CPU
    ({!Vnet.Calibration.client_stub_cpu}) once, send their request to
    the instance's server and check the reply as {!transact} does. *)

val read_block :
  Vnaming.Vmsg.t Kernel.self -> remote_instance -> block:int -> (bytes, Verr.t) result

(** Returns the byte count the server accepted. *)
val write_block :
  Vnaming.Vmsg.t Kernel.self ->
  remote_instance ->
  block:int ->
  bytes ->
  (int, Verr.t) result

val query :
  Vnaming.Vmsg.t Kernel.self -> remote_instance -> (Vnaming.Descriptor.t, Verr.t) result

(** Change the instance's size (truncate or sparse-extend). *)
val set_size :
  Vnaming.Vmsg.t Kernel.self -> remote_instance -> int -> (unit, Verr.t) result

val release : Vnaming.Vmsg.t Kernel.self -> remote_instance -> (unit, Verr.t) result

(** Read the whole instance sequentially from block 0. *)
val read_all : Vnaming.Vmsg.t Kernel.self -> remote_instance -> (bytes, Verr.t) result

(** Write a byte image sequentially from block 0. *)
val write_all :
  Vnaming.Vmsg.t Kernel.self -> remote_instance -> bytes -> (unit, Verr.t) result

(** Read a context directory (§5.6) and decode its records. *)
val read_directory :
  Vnaming.Vmsg.t Kernel.self ->
  remote_instance ->
  (Vnaming.Descriptor.t list, Verr.t) result
