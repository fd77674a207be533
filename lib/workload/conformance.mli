(** CSNH protocol conformance checks.

    The paper's uniformity claim: any server implementing name spaces
    presents the same client interface. This kit runs a protocol-level
    battery — standard reply codes, MapContext and QueryName on the
    context, graceful rejection of unknown operations, illegal names and
    bad contexts, context directories readable through the I/O protocol
    and agreeing with per-object queries, instance lifecycles — against
    an arbitrary server. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

type verdict = Pass | Fail of string | Skip of string

type check = { check_name : string; verdict : verdict }
type report = { server : Pid.t; label : string; checks : check list }

(** No check failed (skips allowed). *)
val passed : report -> bool

val pp_report : Format.formatter -> report -> unit

(** Run the battery against a server. Must run inside a fiber. *)
val check :
  Vnaming.Vmsg.t Kernel.self -> label:string -> Pid.t -> report
