(* The team/program manager: loads program images from a storage server
   into workstation memory with MoveTo (the diskless-workstation path
   whose 64 KB / 338 ms figure §3.1 reports) and runs registered program
   bodies. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
open Vnaming

type program_body = Vmsg.t Kernel.self -> argument:string -> int

(* A program in execution: a temporary object listed in the manager's
   context (§6's "programs in execution" under the uniform
   list-directory command). *)
type execution = {
  exec_id : int;
  exec_program : string;
  exec_argument : string;
  started : float;
  mutable finished : float option;
  mutable status : int option;
}

type t = {
  host : Vmsg.t Kernel.host;
  programs : (string, program_body) Hashtbl.t;
  mutable executions : execution list; (* newest first; ids 1, 2, ... *)
  instances : (unit, Instance_server.nothing) Instance_server.t;
  mutable pid : Pid.t option;
}

let pid t = Option.get t.pid

let executions t = List.rev t.executions

let describe_execution e =
  Descriptor.make ~obj_type:Descriptor.Process ~created:e.started
    ~modified:(Option.value ~default:e.started e.finished)
    ~instance:e.exec_id
    ~attrs:
      [
        ("argument", e.exec_argument);
        ( "status",
          match e.status with
          | None -> "running"
          | Some code -> Fmt.str "exited %d" code );
      ]
    e.exec_program

(* Make a program body available under a name; its image must also be
   installed in the storage server's program directory for loading. *)
let register t name body = Hashtbl.replace t.programs name body

(* [load self ~storage ~context ~name ~size] pulls a program image from
   a storage server into a fresh local buffer via MoveTo. *)
let load self ~storage ~context ~name ~size =
  let buffer = Bytes.create size in
  let req = Csname.make_req ~context name in
  let msg = Vmsg.request ~name:req Vmsg.Op.load_file in
  match Kernel.send self ~buffer storage msg with
  | Error e -> Error (Vio.Verr.Ipc e)
  | Ok (reply, _) -> (
      match Vio.Verr.of_reply reply with
      | Error e -> Error e
      | Ok { Vmsg.payload = Vmsg.P_count n; _ } -> Ok (Bytes.sub buffer 0 n)
      | Ok _ -> Error (Vio.Verr.Protocol "LoadFile reply"))

let record_execution t ~now ~program ~argument =
  let e =
    {
      exec_id = List.length t.executions + 1;
      exec_program = program;
      exec_argument = argument;
      started = now;
      finished = None;
      status = None;
    }
  in
  t.executions <- e :: t.executions;
  e

(* Run a named program: load its image from the program directory of the
   public storage service, then execute the registered body. The
   execution appears in the manager's context for its duration and as a
   finished record afterwards. *)
let run_program t self ~program ~argument =
  match Kernel.get_pid self ~service:Service.Id.storage Service.Both with
  | None -> Error (Vio.Verr.Denied Reply.No_server)
  | Some storage -> (
      let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
      (* Size is discovered by querying the name first. *)
      let query =
        Vmsg.request
          ~name:(Csname.make_req ~context:Context.Well_known.programs program)
          Vmsg.Op.query_name
      in
      match Vio.Client.transact self ~server:storage query with
      | Error e -> Error e
      | Ok ({ Vmsg.payload = Vmsg.P_descriptor d; _ }, _) -> (
          let size = max 1 d.Descriptor.size in
          match
            load self ~storage ~context:Context.Well_known.programs
              ~name:program ~size
          with
          | Error e -> Error e
          | Ok (_image : bytes) ->
              let execution =
                record_execution t ~now:(Vsim.Engine.now engine) ~program
                  ~argument
              in
              let status =
                match Hashtbl.find_opt t.programs program with
                | Some body -> body self ~argument
                | None -> 0
              in
              execution.finished <- Some (Vsim.Engine.now engine);
              execution.status <- Some status;
              Ok status)
      | Ok _ -> Error (Vio.Verr.Protocol "QueryName reply"))

(* Boot the per-workstation program manager: serves RunProgram and a
   CSNH context listing programs in execution. *)
let start host =
  let t =
    {
      host;
      programs = Hashtbl.create 8;
      executions = [];
      instances = Instance_server.create Instance_server.listings_only;
      pid = None;
    }
  in
  let context =
    {
      Csnh.directory = "[programs]";
      owner = "system";
      objects = (fun () -> executions t);
      describe = describe_execution;
      find =
        (fun name ->
          Ok (List.find_opt (fun e -> e.exec_program = name) t.executions));
      listings = Instance_server.listings t.instances;
      handle_name = (fun _ _ _ -> Vmsg.reply Reply.Bad_operation);
    }
  in
  let server_pid =
    Kernel.spawn host ~name:"program-manager" (fun self ->
        let handle =
          Csnh.handle_request self
            (Csnh.flat_handlers context
               ~other:(fun msg -> Instance_server.handle_io t.instances () msg)
               ~server:(Kernel.self_pid self))
            (Csnh.make_stats "pm")
        in
        let rec loop () =
          let msg, sender = Kernel.receive self in
          if msg.Vmsg.code = Vmsg.Op.run_program then begin
            let reply =
              match msg.Vmsg.payload with
              | Vmsg.P_run { program; argument } -> (
                  match run_program t self ~program ~argument with
                  | Ok status -> Vmsg.ok ~payload:(Vmsg.P_exit_status status) ()
                  | Error (Vio.Verr.Denied code) -> Vmsg.reply code
                  | Error (Vio.Verr.Busy _) -> Vmsg.reply Reply.Busy
                  | Error _ -> Vmsg.reply Reply.Server_error)
              | _ -> Vmsg.reply Reply.Bad_operation
            in
            ignore (Kernel.reply self ~to_:sender reply)
          end
          else handle ~sender msg;
          loop ()
        in
        loop ())
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.program_manager server_pid Service.Local;
  t

(* Install a program image into a file server's /bin (scenario setup). *)
let install_image file_server ~name ~image =
  let fs = File_server.fs file_server in
  let bin =
    match Fs.lookup fs ~dir:Fs.root_ino "bin" with
    | Some (Fs.Dir_entry ino) -> ino
    | _ -> failwith "file server has no /bin"
  in
  match Fs.create_file fs ~dir:bin ~owner:"system" name with
  | Error code -> Error code
  | Ok ino -> (
      match Fs.write_file fs ~ino image with
      | Ok () -> Ok ()
      | Error code -> Error code)
