(** The laser printer spooler: jobs are created by opening a name in the
    printer's context for writing; releasing the instance queues the
    job; the context directory lists the queue (§6). *)

module Kernel = Vkernel.Kernel

type job_state = Spooling | Queued | Printing | Done

val state_to_string : job_state -> string

type job = {
  job_name : string;
  mutable content : Buffer.t;
  mutable state : job_state;
  submitted : float;
  mutable completed : float option;
}

type t

(** Boot the printer server (network-visible service). *)
val start : Vnaming.Vmsg.t Kernel.host -> t

val pid : t -> Vkernel.Pid.t

(** All jobs, oldest first. *)
val jobs : t -> job list

val job_state : t -> string -> job_state option
