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
    replies this way. *)
val transact :
  Vnaming.Vmsg.t Kernel.self ->
  server:Pid.t ->
  Vnaming.Vmsg.t ->
  (Vnaming.Vmsg.t * Pid.t, Verr.t) result

(** Send CreateInstance directly to [server] (no prefix routing).
    [?learn] receives the resolution binding a successful reply was
    stamped with, letting the naming layer feed its cache. [?deadline]
    stamps the client's absolute operation deadline (sim ms) for
    admission control at a loaded server. *)
val open_at :
  Vnaming.Vmsg.t Kernel.self ->
  ?learn:(Vnaming.Vmsg.binding -> unit) ->
  ?deadline:float ->
  server:Pid.t ->
  req:Vnaming.Csname.req ->
  mode:Vnaming.Vmsg.open_mode ->
  unit ->
  (remote_instance, Verr.t) result

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
