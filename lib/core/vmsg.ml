(* The V message standards (§3.2, §5.3): every operation code and every
   payload, with what each occupies in the 32-byte message proper and
   what it appends (vmsg.mli documents the types). *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

type binding = { upto : int; spec : Context.spec }
type wseq = { origin : int; seq : int }

(* --- operation codes --- *)

module Op = struct
  let names : (int, string) Hashtbl.t = Hashtbl.create 32

  (* Each code declares the name it prints as. *)
  let code c name =
    Hashtbl.replace names c name;
    c

  (* Standard name-handling operations (§5.7). Codes in [100, 120) are
     CSname requests; the name fields must be present. *)
  let open_instance = code 101 "Open" (* an instance of a named object *)
  let query_name = code 102 "QueryName" (* object description for a name *)
  let modify_name = code 103 "ModifyName" (* overwrite modifiable fields *)
  let map_context = code 104 "MapContext" (* name -> (server, context) *)
  let add_context_name = code 105 "AddContextName" (* optional: a name *)
  let delete_context_name = code 106 "DeleteContextName" (* and its removal *)
  let create_object = code 107 "Create"
  let remove_object = code 108 "Remove"
  let rename_object = code 109 "Rename" (* second name in the payload *)

  (* Read a whole named file, delivered by MoveTo into the buffer the
     sender exposed: the program-loading path (§3.1). *)
  let load_file = code 110 "LoadFile"

  (* Non-CSname standard operations. *)
  let inverse_map_context = code 120 "InverseMapContext" (* id -> CSname *)
  let inverse_map_instance = code 121 "InverseMapInstance"

  (* The V I/O protocol. *)
  let read_instance = code 130 "ReadInstance"
  let write_instance = code 131 "WriteInstance"
  let query_instance = code 132 "QueryInstance"
  let release_instance = code 133 "ReleaseInstance"
  let set_instance_size = code 134 "SetInstanceSize"

  (* Service-specific operations. OpenByLowId opens a file by its
     low-level identifier, bypassing name interpretation: what a §2.1
     centralized name server needs every object server to expose. *)
  let get_time = code 200 "GetTime"
  let run_program = code 210 "RunProgram"
  let report_exception = code 230 "ReportException"
  let open_by_low_id = code 240 "OpenByLowId"

  (* The §2.1 centralized name server's operations. *)
  let ns_register = code 250 "NsRegister"
  let ns_unregister = code 251 "NsUnregister"
  let ns_lookup = code 252 "NsLookup"

  let is_csname_request code = code >= 100 && code < 120

  (* The CSname requests that act on a name itself: the context that
     binds the name's last component answers them, whatever it names. *)
  let acts_on_name code =
    code = remove_object || code = rename_object || code = add_context_name
    || code = delete_context_name || code = query_name || code = modify_name

  (* The CSname requests that mutate the object or name space — the set
     a replicated service must apply at every member (write-all): Create
     and every operation on a name but QueryName. *)
  let is_csname_write code =
    code = create_object || (acts_on_name code && code <> query_name)

  let to_string code =
    match Hashtbl.find names code with
    | n -> n
    | exception Not_found -> Fmt.str "op%d" code
end

(* --- payloads --- *)

type instance_info = { instance : int; file_size : int; block_size : int }
type open_mode = Read | Write | Append | Directory_listing
type ns_binding = { object_server : Pid.t; low_id : int }

type payload =
  | No_payload
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
  | P_time of float
  | P_run of { program : string; argument : string }
  | P_exit_status of int
  | P_exception_report of { culprit : Pid.t; what : string }
  | P_low_id of { low_id : int; mode : open_mode }
  | P_ns_binding of ns_binding
  | P_resolve_step
  | P_referral

type t = {
  code : int;
  is_reply : bool;
  name : Csname.req option;
  payload : payload;
  binding : binding option;
  wseq : wseq option;
  deadline : float option;
  retry_after : float option;
}

(* --- constructors --- *)

let request ?name ?(payload = No_payload) code =
  { code; is_reply = false; name; payload; binding = None; wseq = None;
    deadline = None; retry_after = None }

let reply ?(payload = No_payload) code =
  { code = Reply.to_int code; is_reply = true; name = None; payload;
    binding = None; wseq = None; deadline = None; retry_after = None }

let ok ?payload () = reply ?payload Reply.Ok
let answer = function Ok _ -> ok () | Error code -> reply code

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

(* The §5.4 forwarding rewrite leaves the rest of the message intact. *)
let with_name m name = { m with name = Some name }
let with_binding m binding = { m with binding = Some binding }
let with_wseq m wseq = { m with wseq = Some wseq }
let with_deadline m deadline = { m with deadline = Some deadline }

let busy ~retry_after_ms () =
  { (reply Reply.Busy) with retry_after = Some retry_after_ms }

(* --- the message on the wire --- *)

(* The 32-byte message proper (§3.2), in bytes. Every message holds its
   16-bit code. A CSname request holds the standard fields: the index 2,
   the name's length 2 and the context id 4; the name itself is
   appended. A stamped binding holds how far interpretation reached 2,
   the server pid 4 and the context id 4; a replicated write's [wseq]
   the origin pid 4 and the sequence number 4; the client's deadline and
   a Busy reply's retry-after hint 4 each. A payload holds its fixed
   fields: a pid, a context id, a block number, a size or a count is 4
   bytes; an instance id, a mode, a flag word, a service id and the
   length of what the payload appends are 2; a time is 8. The trace
   context a request carries is free by design: observing a run must not
   change its timings. *)
let fields = function
  | No_payload -> 0
  | P_open _ | P_create _ | P_instance_arg _ | P_exit_status _
  | P_descriptor _ | P_name _ | P_data _ | P_resolve_step | P_referral ->
      2
  | P_context_id _ | P_count _ | P_run _ -> 4
  | P_logical_spec _ | P_read _ | P_set_size _ | P_low_id _
  | P_exception_report _ ->
      6
  | P_instance _ | P_context_spec _ | P_write _ | P_time _ | P_ns_binding _
    ->
      8

let proper_bytes m =
  let opt bytes = function Some _ -> bytes | None -> 0 in
  2 + opt 8 m.name + opt 10 m.binding + opt 8 m.wseq + opt 4 m.deadline
  + opt 4 m.retry_after + fields m.payload

(* What a payload appends beyond the message proper: its data, its
   strings or its encoded description record. *)
let appended = function
  | P_descriptor d -> Descriptor.encoded_length d
  | P_name s | P_exception_report { what = s; _ } -> String.length s
  | P_data b | P_write { data = b; _ } -> Bytes.length b
  | P_run { program; argument } ->
      String.length program + String.length argument
  | No_payload | P_open _ | P_instance _ | P_context_spec _ | P_logical_spec _
  | P_context_id _ | P_instance_arg _ | P_read _ | P_count _ | P_create _
  | P_set_size _ | P_time _ | P_exit_status _ | P_low_id _ | P_ns_binding _
  | P_resolve_step | P_referral ->
      0

let payload_bytes m =
  (match m.name with Some r -> Csname.segment_bytes r | None -> 0)
  + appended m.payload

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
