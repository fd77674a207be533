(** The §2.1 centralized baseline: a distinguished name server mapping
    full character-string names to (object server, low-level id) pairs.
    Clients look a name up here, then address the object server directly
    with the low-level identifier.

    This is the comparison system for experiment E6; it exhibits exactly
    the drawbacks §2.2 predicts — an extra transaction per name use, a
    two-server consistency obligation on create/delete, and a central
    availability choke point. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

type binding = Vmsg.ns_binding = { object_server : Pid.t; low_id : int }

type t

(** Boot the name server (network-visible service). *)
val start : Vmsg.t Kernel.host -> t

val pid : t -> Pid.t
val binding_count : t -> int

(** Direct registration for scenario setup (bypasses the wire). *)
val preload : t -> string -> binding -> unit

(** {1 Client stubs} *)

val register :
  Vmsg.t Kernel.self -> ns:Pid.t -> name:string -> binding -> (unit, Vio.Verr.t) result

val unregister :
  Vmsg.t Kernel.self -> ns:Pid.t -> name:string -> (unit, Vio.Verr.t) result

val lookup :
  Vmsg.t Kernel.self -> ns:Pid.t -> name:string -> (binding, Vio.Verr.t) result

(** Open the centralized way: look up at the name server, then open by
    low-level id at the object server — two transactions where the
    distributed model uses one. *)
val open_via_ns :
  Vmsg.t Kernel.self ->
  ns:Pid.t ->
  name:string ->
  mode:Vmsg.open_mode ->
  (Vio.Client.remote_instance, Vio.Verr.t) result

(** Delete a named object under the centralized model: the object at its
    server, then the name at the name server. [crash_between] stops
    after the first step, leaving the §2.2 stale-name window. *)
val delete_via_ns :
  Vmsg.t Kernel.self ->
  ns:Pid.t ->
  name:string ->
  object_env:Vruntime.Runtime.env ->
  object_name:string ->
  ?crash_between:bool ->
  unit ->
  ([ `Clean | `Interrupted_stale_name_left ], Vio.Verr.t) result
