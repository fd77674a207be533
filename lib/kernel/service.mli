(** Service naming (paper §4.2): processes register as providing a
    numbered service within a scope; clients bind service to server pid
    at time of use via GetPid. *)

(** Visibility of a registration: [Local] to this machine, [Remote]
    (network-visible only), or [Both]. A machine may run a Local server
    and advertise a different public one for the same service. *)
type scope = Local | Remote | Both

(** Does a registration answer a lookup arriving from the given
    origin? *)
val visible :
  registered:scope -> origin:[ `Local_query | `Remote_query ] -> bool

(** Well-known service identifiers used by the standard installation
    (the kernel itself does not interpret these values). *)
module Id : sig
  val storage : int
  val context_prefix : int
  val time : int
  val printer : int
  val terminal : int
  val mail : int
  val exception_handler : int
  val program_manager : int

  (** The §2.1 centralized baseline. *)
  val name_server : int

  val internet : int

  (** The virtual graphics terminal (window) server. *)
  val vgts : int

  (** A directory service implemented by a replica group (§7). *)
  val replica_storage : int

  val to_string : int -> string
end
