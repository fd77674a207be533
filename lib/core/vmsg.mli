(** The V message standards (paper §3.2, §5.3).

    A request message carries its operation code first; the code
    determines the format of the variant part. Requests carrying a
    CSname additionally contain the standard {!Csname.req} fields,
    always in the same place, so any name-handling server can interpret
    and forward such a request {e without understanding its operation
    code} — the property multi-server name interpretation rests on.

    This module is the one definition of the standard: every operation
    code and every payload, each with what it occupies in the 32-byte
    message proper ({!proper_bytes}) and what it appends
    ({!payload_bytes}). *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

(** The resolution binding a CSNH server stamps into a successful
    reply: how far into the name interpretation reached ([upto], an
    index into the request's name) and the (server-pid, context-id)
    implementing the context there. Rides the message proper; clients
    with a name-resolution cache learn from it, everyone else ignores
    it. *)
type binding = { upto : int; spec : Context.spec }

(** Write sequencing for replicated services: the coordinating prefix
    server stamps each fanned-out CSNH write with its own pid
    ([origin]) and a per-coordinator counter ([seq]); replicas
    deduplicate retries and replays on the pair. *)
type wseq = { origin : int; seq : int }

(** Operation codes. Codes in [\[100, 120)] are CSname requests and must
    carry the standard name fields. *)
module Op : sig
  val open_instance : int
  val query_name : int
  val modify_name : int
  val map_context : int
  val add_context_name : int
  val delete_context_name : int
  val create_object : int
  val remove_object : int
  val rename_object : int
  val load_file : int
  val inverse_map_context : int
  val inverse_map_instance : int
  val read_instance : int
  val write_instance : int
  val query_instance : int
  val release_instance : int
  val set_instance_size : int
  val get_time : int
  val run_program : int
  val report_exception : int
  val open_by_low_id : int
  val ns_register : int
  val ns_unregister : int
  val ns_lookup : int

  val is_csname_request : int -> bool

  (** The CSname requests that mutate the object or name space — the
      set a replicated service applies at every member (write-all). *)
  val is_csname_write : int -> bool

  (** The CSname requests that act on a name itself (Remove, Rename,
      AddContextName, DeleteContextName, QueryName, ModifyName), which
      the context binding the name's last component answers; the others
      follow the name to its end. *)
  val acts_on_name : int -> bool

  val to_string : int -> string
end

(** The reply to a successful Open: the temporary object created. *)
type instance_info = { instance : int; file_size : int; block_size : int }

type open_mode = Read | Write | Append | Directory_listing

(** A §2.1 name server's binding: the object server and the object's
    low-level identifier there. *)
type ns_binding = { object_server : Pid.t; low_id : int }

type payload =
  | No_payload
  | P_open of { mode : open_mode }
  | P_instance of instance_info  (** reply to Open *)
  | P_descriptor of Descriptor.t  (** QueryName reply, ModifyName request *)
  | P_context_spec of Context.spec
      (** MapContext reply; AddContextName static target *)
  | P_logical_spec of { service : int; context : Context.id }
      (** AddContextName target resolved via GetPid at each use (§6) *)
  | P_name of string  (** inverse-map replies; Rename's second name *)
  | P_context_id of Context.id  (** InverseMapContext request *)
  | P_instance_arg of int  (** InverseMapInstance request *)
  | P_read of { instance : int; block : int }
  | P_data of bytes  (** ReadInstance reply *)
  | P_write of { instance : int; block : int; data : bytes }
  | P_count of int  (** WriteInstance reply; LoadFile reply: bytes moved *)
  | P_create of { directory : bool }
  | P_set_size of { instance : int; size : int }
  | P_time of float  (** GetTime reply: simulated ms since boot *)
  | P_run of { program : string; argument : string }
  | P_exit_status of int  (** RunProgram reply *)
  | P_exception_report of { culprit : Pid.t; what : string }
  | P_low_id of { low_id : int; mode : open_mode }  (** OpenByLowId *)
  | P_ns_binding of ns_binding  (** NsRegister request, NsLookup reply *)
  | P_resolve_step  (** MapContext marker: a domain server answers *)
  | P_referral  (** a domain server's delegation, on the binding stamp *)

type t = {
  code : int;  (** request code, or reply code for replies *)
  is_reply : bool;
  name : Csname.req option;  (** the standard CSname fields, if any *)
  payload : payload;
  binding : binding option;
      (** resolution binding stamped into successful CSname replies *)
  wseq : wseq option;
      (** replicated-write sequence number stamped by the coordinator *)
  deadline : float option;
      (** absolute sim-time (ms) by which the client's operation budget
          expires; stamped by a resilience-enabled runtime, read by
          admission control for deadline-aware drop *)
  retry_after : float option;
      (** retry-after hint (ms) riding a [Busy] reply: the shedding
          server's estimate of when capacity frees *)
}

(** Build a request message. *)
val request : ?name:Csname.req -> ?payload:payload -> int -> t

(** Build a reply message carrying the given code. *)
val reply : ?payload:payload -> Reply.code -> t

(** [reply Ok] with an optional payload. *)
val ok : ?payload:payload -> unit -> t

(** [ok ()] for [Ok _], [reply code] for [Error code]. *)
val answer : (_, Reply.code) result -> t

(** The reply code, if this is a reply message. *)
val reply_code : t -> Reply.code option

(** Is this a successful reply? *)
val succeeded : t -> bool

(** Rewrite the standard CSname fields, leaving the (possibly not
    understood) rest of the message intact — the §5.4 forwarding
    rewrite. *)
val with_name : t -> Csname.req -> t

(** Stamp the resolution binding of a reply. *)
val with_binding : t -> binding -> t

(** Stamp the coordinator's (origin, seq) onto a fanned-out write. *)
val with_wseq : t -> wseq -> t

(** Stamp the client's absolute operation deadline (sim ms) onto a
    request, for deadline-aware admission drop at loaded servers. *)
val with_deadline : t -> float -> t

(** [busy ~retry_after_ms ()] is the overload rejection: a
    [reply Busy] carrying the shedding server's retry-after estimate. *)
val busy : retry_after_ms:float -> unit -> t

(** Bytes of the 32-byte message proper this message occupies: its code,
    its CSname fields, binding, [wseq], deadline and retry-after hint if
    present, and its payload's fixed fields. The trace context is free
    by design. The layout is declared once, in vmsg.ml. *)
val proper_bytes : t -> int

(** Wire bytes beyond the 32-byte message proper: the name segment plus
    what the payload appends (its data, its strings or its encoded
    description record). *)
val payload_bytes : t -> int

(** Bytes copied into the receiver (names, bulk data). *)
val segment_bytes : t -> int

(** The kernel cost model for V messages. *)
val cost_model : t Kernel.cost_model

val pp : Format.formatter -> t -> unit
