(** The virtual terminal server: transient objects in a flat per-server
    context (§2.2), accessed uniformly through the naming and I/O
    protocols. Writing to an open terminal session appends one line;
    reading returns the terminal's accumulated output; the context
    directory lists the live terminals with their instance ids. *)

module Kernel = Vkernel.Kernel

type t

(** Boot the per-workstation terminal server (Local-scope service). *)
val start : Vnaming.Vmsg.t Kernel.host -> t

val pid : t -> Vkernel.Pid.t

(** Accumulated lines of a terminal, oldest first. *)
val lines : t -> string -> string list
