(** The context prefix server (paper §5.8, §6).

    One runs per user (per workstation), holding that user's symbolic
    names for contexts of interest. A CSname beginning "[prefix]" is
    routed here by the client run-time; the server parses the prefix,
    rewrites the request's standard fields, and forwards it to the
    server implementing the bound context — dropping out of the
    transaction, so the target replies directly to the client.

    Bindings are {e static} (server-pid, context-id) pairs or {e
    logical} (service, context) pairs resolved with GetPid at each use,
    so a service re-registered after a crash keeps resolving. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

type target =
  | Static of Context.spec
  | Logical of { service : int; context : Context.id }
  | Replicated of { group : int; context : Context.id }
      (** a context implemented transparently by a process group of
          servers: prefixed requests are multicast and the first member
          to answer serves them (§7) *)

val pp_target : Format.formatter -> target -> unit

type t

(** Spawn the server on a workstation host and register it as the
    (local-scope) context-prefix service. [initial] seeds bindings. *)
val start :
  Vmsg.t Kernel.host -> owner:string -> ?initial:(string * target) list -> unit -> t

val owner : t -> string
val pid : t -> Pid.t
val stats : t -> Csnh.server_stats

(** Bindings sorted by prefix name. *)
val bindings : t -> (string * target) list

val binding_count : t -> int

(** Live bytes held by the binding table (experiment E5). *)
val data_bytes : t -> int

(** Direct binding management (scenario setup; protocol traffic uses the
    add/delete name operations). The prefix may be written with or
    without its brackets. *)
val add_binding : t -> string -> target -> (unit, Reply.code) result

val delete_binding : t -> string -> (unit, Reply.code) result
