(* The virtual terminal server: transient objects named in a flat
   per-server context (§2.2: "servers that provide a small number of
   transient objects ... can store names and attributes of the objects
   in memory"), accessed uniformly through the naming and I/O
   protocols. Writing a line to an open terminal session appends it;
   reading returns the terminal's accumulated output. *)

module Kernel = Vkernel.Kernel
module Service = Vkernel.Service
open Vnaming

type terminal = {
  term_name : string;
  mutable lines : string list; (* newest first *)
  created : float;
  instance_id : int;  (* the temporary object's instance identifier (§4.3) *)
}

type session = { term : terminal; readonly : bool; snapshot : bytes }

type t = {
  terminals : (string, terminal) Hashtbl.t;
  sessions : (t, session) Instance_server.t;
  engine : Vsim.Engine.t;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid

let terminal_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.terminals [] |> List.sort compare

let lines t name =
  match Hashtbl.find_opt t.terminals name with
  | Some term -> List.rev term.lines
  | None -> []

let describe ~now (term : terminal) =
  Descriptor.make ~obj_type:Descriptor.Terminal
    ~size:(List.length term.lines) ~created:term.created ~modified:now
    ~instance:term.instance_id term.term_name

let create_terminal t ~now name =
  if name = "" then Error Reply.Illegal_name
  else if Hashtbl.mem t.terminals name then Error Reply.Duplicate_name
  else begin
    let term =
      {
        term_name = name;
        lines = [];
        created = now;
        instance_id = Instance_server.reserve t.sessions;
      }
    in
    Hashtbl.replace t.terminals name term;
    Ok term
  end

let image_of_lines term =
  match term.lines with
  | [] -> Bytes.empty
  | lines -> Bytes.of_string (String.concat "\n" (List.rev lines) ^ "\n")

(* Opening a terminal for writing creates it if need be; a session
   reads the terminal's output as it was at the Open. *)
let handle_name t (msg : Vmsg.t) name found =
  let open Vmsg in
  let now = Vsim.Engine.now t.engine in
  if msg.code = Op.open_instance then
    match msg.payload with
    | P_open { mode } -> (
        let term =
          match (found, mode) with
          | Some term, _ -> Ok term
          | None, (Write | Append) -> create_terminal t ~now name
          | None, (Read | Directory_listing) -> Error Reply.Not_found
        in
        match term with
        | Error code -> reply code
        | Ok term ->
            let snapshot = image_of_lines term in
            Instance_server.add t.sessions
              { term; readonly = (mode = Read); snapshot }
              ~file_size:(Bytes.length snapshot))
    | _ -> reply Reply.Bad_operation
  else if msg.code = Op.create_object then answer (create_terminal t ~now name)
  else if msg.code = Op.remove_object then
    if Option.is_some found then begin
      Hashtbl.remove t.terminals name;
      ok ()
    end
    else reply Reply.Not_found
  else reply Reply.Bad_operation

let context t =
  {
    Csnh.directory = "[terminals]";
    owner = "system";
    objects =
      (fun () -> List.map (Hashtbl.find t.terminals) (terminal_names t));
    describe = (fun term -> describe ~now:(Vsim.Engine.now t.engine) term);
    find = (fun name -> Ok (Hashtbl.find_opt t.terminals name));
    listings = Instance_server.listings t.sessions;
    handle_name = handle_name t;
  }

(* A session reads the snapshot taken at its Open; a writable one
   appends each write as a line. *)
let kind =
  {
    Instance_server.block_size = 512;
    read = (fun _ session ~block:_ -> Instance_server.Image session.snapshot);
    write =
      (fun _ session ~block:_ data ->
        if session.readonly then Error Reply.No_permission
        else begin
          session.term.lines <- Bytes.to_string data :: session.term.lines;
          Ok (Bytes.length data)
        end);
    describe =
      (fun t _ session ->
        Ok (describe ~now:(Vsim.Engine.now t.engine) session.term));
    release = (fun _ _ -> ());
  }

(* Boot the per-workstation virtual terminal server. *)
let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      terminals = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      engine;
      pid = None;
    }
  in
  t.pid <-
    Some
      (Csnh.serve_flat host ~name:"terminal-server"
         ~service:Service.Id.terminal Service.Local
         ~other:(fun msg -> Instance_server.handle_io t.sessions t msg)
         (context t));
  t
