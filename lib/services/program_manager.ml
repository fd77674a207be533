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
  executions : (int, execution) Hashtbl.t;
  mutable next_execution : int;
  instances : Instance_server.t;
  mutable pid : Pid.t option;
}

let pid t = Option.get t.pid

let executions t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.executions []
  |> List.sort (fun a b -> compare a.exec_id b.exec_id)

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
      match (Vmsg.reply_code reply, reply.Vmsg.payload) with
      | Some Reply.Ok, Vmsg.P_count n -> Ok (Bytes.sub buffer 0 n)
      | Some Reply.Ok, _ -> Error (Vio.Verr.Protocol "LoadFile reply")
      | Some code, _ -> Error (Vio.Verr.Denied code)
      | None, _ -> Error (Vio.Verr.Protocol "expected reply"))

let record_execution t ~now ~program ~argument =
  let e =
    {
      exec_id = t.next_execution;
      exec_program = program;
      exec_argument = argument;
      started = now;
      finished = None;
      status = None;
    }
  in
  t.next_execution <- t.next_execution + 1;
  Hashtbl.replace t.executions e.exec_id e;
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
      match Kernel.send self storage query with
      | Error e -> Error (Vio.Verr.Ipc e)
      | Ok (reply, _) -> (
          match (Vmsg.reply_code reply, reply.Vmsg.payload) with
          | Some Reply.Ok, Vmsg.P_descriptor d ->
              let size = max 1 d.Descriptor.size in
              (match
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
          | Some Reply.Ok, _ -> Error (Vio.Verr.Protocol "QueryName reply")
          | Some code, _ -> Error (Vio.Verr.Denied code)
          | None, _ -> Error (Vio.Verr.Protocol "expected reply")))

(* Boot the per-workstation program manager: serves RunProgram and a
   CSNH context listing programs in execution. *)
let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let now () = Vsim.Engine.now engine in
  let t =
    {
      host;
      programs = Hashtbl.create 8;
      executions = Hashtbl.create 8;
      next_execution = 1;
      instances = Instance_server.create ~name:"execution-dirs" ();
      pid = None;
    }
  in
  let find_by_name name =
    List.find_opt (fun e -> e.exec_program = name) (List.rev (executions t))
  in
  let handlers =
    {
      Csnh.valid_context = (fun ctx -> ctx = Context.Well_known.default);
      lookup = (fun _ _ -> Csnh.Stop);
      handle_csname =
        (fun ~sender:_ msg _req _ctx remaining ->
          let open Vmsg in
          match remaining with
          | [] when msg.code = Op.open_instance ->
              let image =
                Descriptor.directory_to_bytes
                  (List.map describe_execution (executions t))
              in
              let info =
                Instance_server.open_image t.instances ~now:(now ())
                  ~describe:(fun () ->
                    Descriptor.make ~obj_type:Descriptor.Directory
                      ~size:(Hashtbl.length t.executions) "[programs]")
                  image
              in
              ok ~payload:(P_instance info) ()
          | [] when msg.code = Op.map_context ->
              ok
                ~payload:
                  (P_context_spec
                     (Context.spec ~server:(pid t)
                        ~context:Context.Well_known.default))
                ()
          | [ name ] when msg.code = Op.query_name -> (
              match find_by_name name with
              | Some e -> ok ~payload:(P_descriptor (describe_execution e)) ()
              | None -> reply Reply.Not_found)
          | _ -> reply Reply.Bad_operation);
      handle_other =
        (fun ~sender:_ msg ->
          match Instance_server.handle_io t.instances msg with
          | Some r -> Some r
          | None -> None);
    }
  in
  let server_pid =
    Kernel.spawn host ~name:"program-manager" (fun self ->
        let handle = Csnh.handle_request self handlers (Csnh.make_stats "pm") in
        let rec loop () =
          let msg, sender = Kernel.receive self in
          if msg.Vmsg.code = Svc.Op.run_program then begin
            let reply =
              match msg.Vmsg.payload with
              | Svc.P_run { program; argument } -> (
                  match run_program t self ~program ~argument with
                  | Ok status -> Vmsg.ok ~payload:(Svc.P_exit_status status) ()
                  | Error (Vio.Verr.Denied code) -> Vmsg.reply code
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
