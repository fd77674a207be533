(** The exception server: collects exception reports from processes on
    its workstation and exposes the recent ones as a context directory —
    one more object type under the uniform listing machinery (§6). *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

type report = { culprit : Pid.t; what : string; at : float }

type t

(** Boot the per-workstation exception server (Local-scope service). *)
val start : Vnaming.Vmsg.t Kernel.host -> t

val pid : t -> Pid.t

(** Recent reports, oldest first (bounded history). *)
val reports : t -> report list

(** Client stub: report an exception to this workstation's server.
    Silently a no-op when none is registered. The server refuses a
    report whose record could not be listed ([Illegal_name]); the stub
    ignores the reply. *)
val report : Vnaming.Vmsg.t Kernel.self -> culprit:Pid.t -> string -> unit
