(* Client side of the V I/O protocol (§3.2).

   These stubs operate on an instance that has already been created
   (opened); creating one from a CSname is the naming layer's job
   ([Vruntime]), which routes the Open through the current context or a
   context prefix. The pid of the server that actually implements the
   instance is learned from the Open reply — after forwarding it may not
   be the process the request was first sent to. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

(* An open instance: the implementing server plus the instance info its
   Open reply carried. *)
type remote_instance = { server : Pid.t; info : Vmsg.instance_info }

let instance_id ri = ri.info.Vmsg.instance
let size ri = ri.info.Vmsg.file_size
let block_size ri = ri.info.Vmsg.block_size

let charge_stub self =
  Vsim.Proc.delay
    (Kernel.engine_of_domain (Kernel.domain_of_self self))
    Vnet.Calibration.client_stub_cpu

(* Send a request and run the common reply checks. *)
let transact self ~server msg =
  match Kernel.send self server msg with
  | Error e -> Error (Verr.Ipc e)
  | Ok (reply, replier) -> (
      match Verr.of_reply reply with
      | Ok m -> Ok (m, replier)
      | Error e -> Error e)

(* [open_at self ~server ~req ~mode] sends CreateInstance directly to a
   server (no prefix routing), returning the instance and the
   implementing server. [?learn] receives the resolution binding the
   replying server stamped into a successful reply, so the naming layer
   can feed its cache without this module knowing about caching.
   [?deadline] stamps the client's absolute operation deadline for
   admission control at a loaded server. *)
let open_at self ?learn ?deadline ~server ~req ~mode () =
  charge_stub self;
  let msg =
    Vmsg.request ~name:req ~payload:(Vmsg.P_open { mode }) Vmsg.Op.open_instance
  in
  let msg =
    match deadline with Some d -> Vmsg.with_deadline msg d | None -> msg
  in
  match transact self ~server msg with
  | Error e -> Error e
  | Ok (reply, replier) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_instance info ->
          (match (learn, reply.Vmsg.binding) with
          | Some f, Some b -> f b
          | _ -> ());
          Ok { server = replier; info }
      | _ -> Error (Verr.Protocol "Open reply carried no instance"))

let read_block self ri ~block =
  charge_stub self;
  let msg =
    Vmsg.request
      ~payload:(Vmsg.P_read { instance = instance_id ri; block })
      Vmsg.Op.read_instance
  in
  match transact self ~server:ri.server msg with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_data data -> Ok data
      | _ -> Error (Verr.Protocol "Read reply carried no data"))

let write_block self ri ~block data =
  charge_stub self;
  let msg =
    Vmsg.request
      ~payload:(Vmsg.P_write { instance = instance_id ri; block; data })
      Vmsg.Op.write_instance
  in
  match transact self ~server:ri.server msg with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_count n -> Ok n
      | _ -> Error (Verr.Protocol "Write reply carried no count"))

let query self ri =
  charge_stub self;
  let msg =
    Vmsg.request
      ~payload:(Vmsg.P_instance_arg (instance_id ri))
      Vmsg.Op.query_instance
  in
  match transact self ~server:ri.server msg with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_descriptor d -> Ok d
      | _ -> Error (Verr.Protocol "QueryInstance reply carried no descriptor"))

(* Change the instance's (file's) size. *)
let set_size self ri size =
  charge_stub self;
  let msg =
    Vmsg.request
      ~payload:(Vmsg.P_set_size { instance = instance_id ri; size })
      Vmsg.Op.set_instance_size
  in
  match transact self ~server:ri.server msg with
  | Error e -> Error e
  | Ok (_, _) -> Ok ()

let release self ri =
  charge_stub self;
  let msg =
    Vmsg.request
      ~payload:(Vmsg.P_instance_arg (instance_id ri))
      Vmsg.Op.release_instance
  in
  match transact self ~server:ri.server msg with
  | Error e -> Error e
  | Ok (_, _) -> Ok ()

(* Read the whole instance sequentially. *)
let read_all self ri =
  let buf = Buffer.create (max 64 (size ri)) in
  let rec loop block =
    match read_block self ri ~block with
    | Ok data ->
        Buffer.add_bytes buf data;
        if Bytes.length data < block_size ri then Ok (Buffer.to_bytes buf)
        else loop (block + 1)
    | Error (Verr.Denied Reply.End_of_file) -> Ok (Buffer.to_bytes buf)
    | Error e -> Error e
  in
  loop 0

(* Write a byte image sequentially from block 0. *)
let write_all self ri data =
  let bs = block_size ri in
  let len = Bytes.length data in
  let blocks = if len = 0 then 1 else (len + bs - 1) / bs in
  let rec loop block =
    if block >= blocks then Ok ()
    else begin
      let off = block * bs in
      let chunk_len = min bs (len - off) in
      let chunk = if chunk_len <= 0 then Bytes.empty else Bytes.sub data off chunk_len in
      match write_block self ri ~block chunk with
      | Ok _ -> loop (block + 1)
      | Error e -> Error e
    end
  in
  loop 0

(* Read an instance that is a context directory (§5.6) and decode its
   description records. *)
let read_directory self ri =
  match read_all self ri with
  | Error e -> Error e
  | Ok image -> (
      match Descriptor.all_of_bytes image with
      | records -> Ok records
      | exception Descriptor.Malformed what ->
          Error (Verr.Protocol ("malformed directory record: " ^ what)))
