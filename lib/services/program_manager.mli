(** The team/program manager: loads program images from a storage server
    into workstation memory with MoveTo (the diskless-workstation path
    of §3.1) and runs registered program bodies. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

(** What a named program does when run; returns its exit status. *)
type program_body = Vmsg.t Kernel.self -> argument:string -> int

(** A program in execution, listed as a temporary object in the
    manager's context (§6's "programs in execution"). *)
type execution = {
  exec_id : int;
  exec_program : string;
  exec_argument : string;
  started : float;
  mutable finished : float option;
  mutable status : int option;
}

type t

(** Boot the per-workstation program manager (Local-scope service). It
    also serves a CSNH context whose directory lists executions. *)
val start : Vmsg.t Kernel.host -> t

val pid : t -> Pid.t

(** Past and present executions, oldest first. *)
val executions : t -> execution list

(** Make a program body runnable under a name. Its image must also be
    installed in a storage server's program directory. *)
val register : t -> string -> program_body -> unit

(** Pull a program image from a storage server into a fresh buffer via
    MoveTo. [size] bounds the transfer (usually from QueryName). *)
val load :
  Vmsg.t Kernel.self ->
  storage:Pid.t ->
  context:Context.id ->
  name:string ->
  size:int ->
  (bytes, Vio.Verr.t) result

(** Load a program from the public storage service and execute its
    registered body (no body registered: status 0). *)
val run_program :
  t ->
  Vmsg.t Kernel.self ->
  program:string ->
  argument:string ->
  (int, Vio.Verr.t) result

(** Install a program image into a file server's /bin (setup). *)
val install_image :
  File_server.t -> name:string -> image:bytes -> (unit, Reply.code) result
