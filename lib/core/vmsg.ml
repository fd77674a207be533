(* The V message standards (§3.2, §5.3).

   A request message carries its operation code in the first field; the
   code determines the format of the variant part. Requests that carry a
   CSname additionally contain the standard fields of {!Csname.req},
   always in the same place, so any CSNH server can interpret and
   forward such a request without understanding its operation code.

   The [payload] is an extensible variant: each subsystem (I/O
   protocol, file server, services) adds its own constructors, mirroring
   how V servers define request formats for their own operations on top
   of the common standards. *)

module Kernel = Vkernel.Kernel

type payload = ..
type payload += No_payload

(* The resolution binding a CSNH server stamps into a successful reply:
   how far into the name interpretation reached, and the (server-pid,
   context-id) implementing the context at that point. Clients that keep
   a name-resolution cache learn bindings for free from it; everyone
   else ignores it. Like [Csname.req.trace], it fits the fixed 32-byte
   message proper and contributes nothing to [payload_bytes], so wire
   timings are identical whether any client caches or not. *)
type binding = { upto : int; spec : Context.spec }

(* Write sequencing for replicated services: the coordinating prefix
   server stamps each fanned-out CSNH write with its own pid ([origin])
   and a per-coordinator counter ([seq]). Replicas deduplicate retries
   and replays on (origin, seq). Like [binding], the pair fits the
   32-byte message proper and contributes nothing to [payload_bytes]. *)
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
          expires; stamped by a resilience-enabled runtime so admission
          control can drop requests whose queue wait already exceeds it.
          Rides the 32-byte message proper — no wire bytes. *)
  retry_after : float option;
      (** server-supplied retry-after hint (ms) riding a [Busy] reply:
          the shedding server's own estimate of when capacity frees.
          Rides the 32-byte message proper — no wire bytes. *)
}

(* --- operation codes --- *)

module Op = struct
  (* Standard name-handling operations (§5.7). Codes below 200 are
     CSname requests; the name fields must be present. *)
  let open_instance = 101 (* create an instance of a named object (I/O §3.2) *)
  let query_name = 102 (* object description for a name *)
  let modify_name = 103 (* overwrite modifiable description fields *)
  let map_context = 104 (* name of a context -> (server-pid, context-id) *)
  let add_context_name = 105 (* optional: define a name for a context *)
  let delete_context_name = 106 (* optional: remove such a name *)
  let create_object = 107
  let remove_object = 108
  let rename_object = 109 (* second name travels in the payload *)

  let load_file = 110
  (* read a whole named file, delivered by MoveTo into the buffer the
     sender exposed: the program-loading path (§3.1) *)

  (* Non-CSname standard operations. *)
  let inverse_map_context = 120 (* context-id -> CSname *)
  let inverse_map_instance = 121 (* instance-id -> CSname *)

  (* The V I/O protocol. *)
  let read_instance = 130
  let write_instance = 131
  let query_instance = 132
  let release_instance = 133
  let set_instance_size = 134

  let is_csname_request code = code >= 100 && code < 120

  (* The CSname requests that mutate the object or name space — the set
     a replicated service must apply at every member (write-all). *)
  let is_csname_write code =
    code = modify_name || code = add_context_name
    || code = delete_context_name || code = create_object
    || code = remove_object || code = rename_object

  let names : (int, string) Hashtbl.t = Hashtbl.create 32

  let register code name = Hashtbl.replace names code name

  let () =
    List.iter
      (fun (c, n) -> register c n)
      [
        (open_instance, "Open");
        (query_name, "QueryName");
        (modify_name, "ModifyName");
        (map_context, "MapContext");
        (add_context_name, "AddContextName");
        (delete_context_name, "DeleteContextName");
        (create_object, "Create");
        (remove_object, "Remove");
        (rename_object, "Rename");
        (load_file, "LoadFile");
        (inverse_map_context, "InverseMapContext");
        (inverse_map_instance, "InverseMapInstance");
        (read_instance, "ReadInstance");
        (write_instance, "WriteInstance");
        (query_instance, "QueryInstance");
        (release_instance, "ReleaseInstance");
        (set_instance_size, "SetInstanceSize");
      ]

  let to_string code =
    match Hashtbl.find names code with
    | n -> n
    | exception Not_found -> Fmt.str "op%d" code
end

(* --- standard payloads --- *)

type instance_info = {
  instance : int;  (** object instance identifier (§4.3) *)
  file_size : int;  (** current size in bytes *)
  block_size : int;  (** preferred transfer unit *)
}

type open_mode = Read | Write | Append | Directory_listing

type payload +=
  | P_open of { mode : open_mode }
  | P_instance of instance_info  (** reply to Open *)
  | P_descriptor of Descriptor.t  (** QueryName reply / ModifyName request *)
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
  | P_count of int  (** WriteInstance reply: bytes accepted; LoadFile
                        reply: bytes moved *)
  | P_create of { directory : bool }  (** Create request *)
  | P_set_size of { instance : int; size : int }  (** SetInstanceSize *)

(* --- constructors --- *)

let request ?name ?(extra_bytes = 0) ?(payload = No_payload) code =
  { code; is_reply = false; name; payload; extra_bytes; binding = None;
    wseq = None; deadline = None; retry_after = None }

let reply ?(extra_bytes = 0) ?(payload = No_payload) code =
  {
    code = Reply.to_int code;
    is_reply = true;
    name = None;
    payload;
    extra_bytes;
    binding = None;
    wseq = None;
    deadline = None;
    retry_after = None;
  }

let ok ?extra_bytes ?payload () = reply ?extra_bytes ?payload Reply.Ok

let reply_code m =
  if not m.is_reply then None
  else
    match Reply.of_int m.code with
    | Some c -> Some c
    | None -> Some Reply.Server_error

(* Did this reply succeed? Requests are never "successful replies".
   Checked on every reply a server or resolver handles, so compare
   codes directly rather than materialising option values. *)
let ok_code = Reply.to_int Reply.Ok
let succeeded m = m.is_reply && m.code = ok_code

(* [with_name m req] rewrites the standard CSname fields, leaving the
   rest of the (possibly not understood) message intact — the rewrite a
   CSNH server performs before forwarding (§5.4). *)
let with_name m name = { m with name = Some name }

(* Stamp (or overwrite) the resolution binding of a reply. *)
let with_binding m binding = { m with binding = Some binding }

(* Stamp the coordinator's (origin, seq) onto a fanned-out write. *)
let with_wseq m wseq = { m with wseq = Some wseq }

(* Stamp the client's absolute operation deadline onto a request. *)
let with_deadline m deadline = { m with deadline = Some deadline }

(* The overload rejection: a Busy reply carrying the shedding server's
   retry-after estimate. Like [binding] and [wseq], the hint rides the
   32-byte message proper and contributes nothing to [payload_bytes]. *)
let busy ~retry_after_ms () =
  { (reply Reply.Busy) with retry_after = Some retry_after_ms }

(* --- kernel cost model --- *)

let payload_bytes m =
  (match m.name with Some r -> Csname.segment_bytes r | None -> 0) + m.extra_bytes

(* Names and bulk data are appended segments copied into the receiver. *)
let segment_bytes = payload_bytes

let cost_model = { Kernel.payload_bytes; Kernel.segment_bytes }

let pp ppf m =
  if m.is_reply then
    Fmt.pf ppf "reply %s"
      (match Reply.of_int m.code with
      | Some c -> Reply.to_string c
      | None -> string_of_int m.code)
  else
    Fmt.pf ppf "%s%a" (Op.to_string m.code)
      (fun ppf -> function
        | None -> ()
        | Some r -> Fmt.pf ppf " %a" Csname.pp_req r)
      m.name
