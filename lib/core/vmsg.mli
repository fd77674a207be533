(** The V message standards (paper §3.2, §5.3).

    A request message carries its operation code first; the code
    determines the format of the variant part. Requests carrying a
    CSname additionally contain the standard {!Csname.req} fields,
    always in the same place, so any name-handling server can interpret
    and forward such a request {e without understanding its operation
    code} — the property multi-server name interpretation rests on.

    [payload] is an extensible variant: each subsystem adds its own
    constructors for its operations, exactly as V servers defined
    message formats on top of the common standards. *)

module Kernel = Vkernel.Kernel

type payload = ..
type payload += No_payload

(** The resolution binding a CSNH server stamps into a successful
    reply: how far into the name interpretation reached ([upto], an
    index into the request's name) and the (server-pid, context-id)
    implementing the context there. Fits the fixed 32-byte message
    proper, so it adds no wire bytes; clients with a name-resolution
    cache learn from it, everyone else ignores it. *)
type binding = { upto : int; spec : Context.spec }

(** Write sequencing for replicated services: the coordinating prefix
    server stamps each fanned-out CSNH write with its own pid
    ([origin]) and a per-coordinator counter ([seq]); replicas
    deduplicate retries and replays on the pair. Fits the 32-byte
    message proper — no wire bytes. *)
type wseq = { origin : int; seq : int }

type t = {
  code : int;  (** request code, or reply code for replies *)
  is_reply : bool;
  name : Csname.req option;  (** the standard CSname fields, if any *)
  payload : payload;
  extra_bytes : int;
      (** wire bytes beyond the 32-byte message and the name segment:
          bulk data, directory records, etc. *)
  binding : binding option;
      (** resolution binding stamped into successful CSname replies *)
  wseq : wseq option;
      (** replicated-write sequence number stamped by the coordinator *)
  deadline : float option;
      (** absolute sim-time (ms) by which the client's operation budget
          expires; stamped by a resilience-enabled runtime, read by
          admission control for deadline-aware drop. No wire bytes. *)
  retry_after : float option;
      (** retry-after hint (ms) riding a [Busy] reply: the shedding
          server's estimate of when capacity frees. No wire bytes. *)
}

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

  val is_csname_request : int -> bool

  (** The CSname requests that mutate the object or name space — the
      set a replicated service applies at every member (write-all). *)
  val is_csname_write : int -> bool

  (** Register a printable name for a service-specific code. *)
  val register : int -> string -> unit

  val to_string : int -> string
end

(** The reply to a successful Open: the temporary object created. *)
type instance_info = { instance : int; file_size : int; block_size : int }

type open_mode = Read | Write | Append | Directory_listing

type payload +=
  | P_open of { mode : open_mode }
  | P_instance of instance_info
  | P_descriptor of Descriptor.t
  | P_context_spec of Context.spec
  | P_logical_spec of { service : int; context : Context.id }
  | P_name of string
  | P_context_id of Context.id
  | P_instance_arg of int
  | P_read of { instance : int; block : int }
  | P_data of bytes
  | P_write of { instance : int; block : int; data : bytes }
  | P_count of int
  | P_create of { directory : bool }
  | P_set_size of { instance : int; size : int }

(** Build a request message. *)
val request : ?name:Csname.req -> ?extra_bytes:int -> ?payload:payload -> int -> t

(** Build a reply message carrying the given code. *)
val reply : ?extra_bytes:int -> ?payload:payload -> Reply.code -> t

(** [reply Ok] with an optional payload. *)
val ok : ?extra_bytes:int -> ?payload:payload -> unit -> t

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
    [reply Busy] carrying the shedding server's retry-after estimate.
    The hint adds no wire bytes (32-byte message proper). *)
val busy : retry_after_ms:float -> unit -> t

(** Wire bytes beyond the 32-byte message proper. *)
val payload_bytes : t -> int

(** Bytes copied into the receiver (names, bulk data). *)
val segment_bytes : t -> int

(** The kernel cost model for V messages. *)
val cost_model : t Kernel.cost_model

val pp : Format.formatter -> t -> unit
