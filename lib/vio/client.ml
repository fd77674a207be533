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

(* Send a request and run the common reply checks. *)
let transact self ~server msg =
  match Kernel.send self server msg with
  | Error e -> Error (Verr.Ipc e)
  | Ok (reply, replier) -> (
      match Verr.of_reply reply with
      | Ok m -> Ok (m, replier)
      | Error e -> Error e)

(* The one call of the instance stubs below: the stub's CPU for building
   the request, then the request to the instance's server, its reply
   checked as [transact] checks it. *)
let call self ri code payload =
  Vsim.Proc.delay
    (Kernel.engine_of_domain (Kernel.domain_of_self self))
    Vnet.Calibration.client_stub_cpu;
  match Kernel.send self ri.server (Vmsg.request ~payload code) with
  | Error e -> Error (Verr.Ipc e)
  | Ok (reply, _) -> Verr.of_reply reply

let read_block self ri ~block =
  match
    call self ri Vmsg.Op.read_instance
      (Vmsg.P_read { instance = instance_id ri; block })
  with
  | Ok { Vmsg.payload = Vmsg.P_data data; _ } -> Ok data
  | Ok _ -> Error (Verr.Protocol "Read reply carried no data")
  | Error e -> Error e

let write_block self ri ~block data =
  match
    call self ri Vmsg.Op.write_instance
      (Vmsg.P_write { instance = instance_id ri; block; data })
  with
  | Ok { Vmsg.payload = Vmsg.P_count n; _ } -> Ok n
  | Ok _ -> Error (Verr.Protocol "Write reply carried no count")
  | Error e -> Error e

let query self ri =
  match
    call self ri Vmsg.Op.query_instance (Vmsg.P_instance_arg (instance_id ri))
  with
  | Ok { Vmsg.payload = Vmsg.P_descriptor d; _ } -> Ok d
  | Ok _ -> Error (Verr.Protocol "QueryInstance reply carried no descriptor")
  | Error e -> Error e

(* Change the instance's (file's) size. *)
let set_size self ri size =
  match
    call self ri Vmsg.Op.set_instance_size
      (Vmsg.P_set_size { instance = instance_id ri; size })
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let release self ri =
  match
    call self ri Vmsg.Op.release_instance (Vmsg.P_instance_arg (instance_id ri))
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

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
