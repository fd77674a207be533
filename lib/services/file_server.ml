(* The V storage server: a CSNH server over the inode filesystem.

   Context identifiers map onto directories, which act as starting
   points for interpreting relative pathnames (§6) — the well-known ids
   name the root, the owner's home directory and the standard program
   directory; every other directory gets an ordinary context id derived
   from its inode. Cross-server links in directories become request
   forwarding. File access runs over the I/O protocol, with optional
   read-ahead. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration
open Vnaming

(* Ordinary context ids are inode numbers displaced past the well-known
   range. *)
let ctx_base = Context.Well_known.first_ordinary
let ctx_of_ino ino = ino + ctx_base

type open_file = {
  of_ino : int;
  of_name : string;
  of_mode : Vmsg.open_mode;
  of_base_block : int;  (* nonzero for append mode *)
}

(* A user account: the second object type this server implements
   (§5.2: "a file server may implement both files and user accounts"),
   living in its own context. *)
type account = { acct_name : string; acct_created : float; acct_home : int }

type t = {
  server_name : string;
  owner : string;
  scope : Service.scope;  (* where the storage service registers *)
  fs : Fs.t;
  disk : Disk.t;
  engine : Vsim.Engine.t;
  instances : (t, open_file) Instance_server.t;
  mutable read_ahead : int; (* blocks prefetched past a sequential read *)
  mutable home_ino : int;
  mutable programs_ino : int;
  mutable users_ino : int;
  accounts : (string, account) Hashtbl.t;
  stats : Csnh.server_stats;
  guard : Seq_guard.t;
      (* dedupe of replicated writes on (origin, seq); the applied marks
         are durable like the disk, the reply cache is not *)
  mutable pid : Pid.t option;
  (* Where byte counts report, set at spawn. *)
  mutable events : Events.t option;
  (* Overload-protection policy; [None] = admission off. Survives
     [restart_from] (the record is copied), so a protected server
     rebooted over its disk comes back protected. *)
  mutable admission_cfg : Admission.config option;
}

let pid t = match t.pid with Some p -> p | None -> failwith "file server not started"

(* Overload protection: store the policy on the record and install it
   on the live serving process; [spawn_server] re-installs on every
   (re)boot, so protection survives [restart_from]. *)
let enable_admission t domain ?(config = Admission.file_server ()) () =
  t.admission_cfg <- Some config;
  match t.pid with
  | Some p -> Admission.install domain p config
  | None -> ()

let disable_admission t domain =
  t.admission_cfg <- None;
  match t.pid with Some p -> Admission.uninstall domain p | None -> ()

let admission_config t = t.admission_cfg
let fs t = t.fs
let applied_wseq t ~origin = Seq_guard.applied_seq t.guard ~origin
let disk t = t.disk
let stats t = t.stats
(* How many blocks to prefetch past each sequential read (0 disables). *)
let set_read_ahead t depth = t.read_ahead <- max 0 depth
let name t = t.server_name

let spec t ~context = Context.spec ~server:(pid t) ~context

(* The low-level identifier of a path: the inode number — what a
   centralized name server would hand out (§2.2 "fewer levels of
   naming"). *)
let low_id_of_path t path =
  match Fs.resolve_path t.fs path with
  | Some (Fs.File_entry ino) | Some (Fs.Dir_entry ino) -> Some ino
  | Some (Fs.Remote_link _) | None -> None

let charge t ms = if ms > 0.0 then Vsim.Proc.delay t.engine ms

(* The directory inode a context names; [Not_found] when it names
   none. *)
let dir_of_ctx t ctx =
  if ctx = Context.Well_known.default then Fs.root_ino
  else if ctx = Context.Well_known.home then t.home_ino
  else if ctx = Context.Well_known.programs then t.programs_ino
  else if ctx >= ctx_base && Fs.is_dir t.fs (ctx - ctx_base) then
    ctx - ctx_base
  else raise_notrace Not_found

(* Does [name] in directory [dir] name directory [ino] or one of its
   ancestors? Reads parent links only, so it allocates nothing. *)
let rec names_ancestor t ~dir name ino =
  let node = Fs.get t.fs ino in
  (node.Fs.parent = dir && String.equal node.Fs.name_in_parent name)
  || (ino <> Fs.root_ino && names_ancestor t ~dir name node.Fs.parent)

(* The well-known contexts, the home and programs directories and the
   users directory and root enclosing them, are neither removed nor
   renamed. *)
let names_well_known t ~dir name =
  names_ancestor t ~dir name t.home_ino
  || names_ancestor t ~dir name t.programs_ino

(* --- the accounts context --- *)

let account_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.accounts [] |> List.sort compare

let describe_account t (a : account) =
  Descriptor.make ~obj_type:Descriptor.User_account ~owner:a.acct_name
    ~created:a.acct_created
    ~attrs:
      [ ("home", Option.value ~default:"?" (Fs.path_of_ino t.fs a.acct_home)) ]
    a.acct_name

(* Creating an account also creates its home directory: one atomic
   single-server operation covering both object types. *)
let create_account t ~now name =
  if Hashtbl.mem t.accounts name then Error Reply.Duplicate_name
  else
    match Fs.mkdir t.fs ~dir:t.users_ino ~owner:name name with
    | Error code -> Error code
    | Ok home ->
        let a = { acct_name = name; acct_created = now; acct_home = home } in
        Hashtbl.replace t.accounts name a;
        Ok a

let remove_account t name =
  match Hashtbl.find_opt t.accounts name with
  | None -> Error Reply.Not_found
  | Some a when a.acct_home = t.home_ino ->
      (* The owner's home is the well-known home context, which is not
         removable. *)
      Error Reply.No_permission
  | Some a -> (
      (* The home directory must be empty, like any directory removal. *)
      match Fs.unlink t.fs ~dir:t.users_ino a.acct_name with
      | Ok () ->
          Hashtbl.remove t.accounts name;
          Ok ()
      | Error code -> Error code)

(* --- instances --- *)

let open_instance_count t = Instance_server.count t.instances

(* Open files read from the disk, prefetching [read_ahead] blocks past
   each read; directory listings are the table's own. *)
let kind block_size =
  {
    Instance_server.block_size;
    read =
      (fun t f ~block ->
        match Fs.read_block t.fs ~ino:f.of_ino ~block with
        | Error code -> Instance_server.Refused code
        | Ok data ->
            for ahead = 1 to t.read_ahead do
              Fs.prefetch_block t.fs ~ino:f.of_ino ~block:(block + ahead)
            done;
            Instance_server.Data data);
    write =
      (fun t f ~block data ->
        if f.of_mode = Vmsg.Read then Error Reply.No_permission
        else
          Fs.write_block t.fs ~ino:f.of_ino ~block:(f.of_base_block + block)
            data);
    describe =
      (fun t instance f ->
        match Fs.describe_ino t.fs f.of_ino with
        | Some d -> Ok { d with Descriptor.instance = Some instance }
        | None -> Error Reply.Not_found);
    release = (fun _ _ -> ());
  }

let open_file t ~name ~mode ~base ino =
  let size =
    match Fs.find t.fs ino with Some node -> node.Fs.size | None -> 0
  in
  Instance_server.add t.instances
    { of_ino = ino; of_name = name; of_mode = mode; of_base_block = base }
    ~file_size:size

(* --- context directories --- *)

let directory_image t ~dir_ino =
  let entries = Fs.entries t.fs ~dir:dir_ino in
  charge t (float_of_int (List.length entries) *. Calibration.descriptor_fabricate_cpu);
  entries
  |> List.map (fun (name, entry) -> Fs.describe_entry t.fs ~name entry)
  |> Descriptor.directory_to_bytes

(* --- the CSNH handlers --- *)

let describe_dir t dir_ino =
  let path = Option.value ~default:"?" (Fs.path_of_ino t.fs dir_ino) in
  Descriptor.make ~obj_type:Descriptor.Directory
    ~size:(List.length (Fs.entries t.fs ~dir:dir_ino))
    ~owner:t.owner path

let open_existing t ~name ~mode ino =
  match mode with
  | Vmsg.Read -> open_file t ~name ~mode ~base:0 ino
  | Vmsg.Write -> (
      match Fs.truncate t.fs ~ino with
      | Error code -> Vmsg.reply code
      | Ok () -> open_file t ~name ~mode ~base:0 ino)
  | Vmsg.Append ->
      let base =
        match Fs.find t.fs ino with
        | Some node -> Fs.file_blocks t.fs node
        | None -> 0
      in
      open_file t ~name ~mode ~base ino
  | Vmsg.Directory_listing -> Vmsg.reply Reply.Not_a_context

let handle_open t ~ctx_ino ~remaining ~mode =
  match remaining with
  | [] ->
      (* The context itself: its directory read as a file (§5.6). *)
      let image = directory_image t ~dir_ino:ctx_ino in
      Instance_server.add_listing
        (Instance_server.listings t.instances)
        ~directory:(Option.value ~default:"?" (Fs.path_of_ino t.fs ctx_ino))
        ~owner:t.owner image
  | [ name ] -> (
      match Fs.lookup t.fs ~dir:ctx_ino name with
      | Some (Fs.File_entry ino) -> open_existing t ~name ~mode ino
      | Some (Fs.Dir_entry _) | Some (Fs.Remote_link _) ->
          (* Directories are consumed by the walk; reaching here means a
             stale entry type. *)
          Vmsg.reply Reply.Not_a_context
      | None -> (
          match mode with
          | Vmsg.Write | Vmsg.Append -> (
              match Fs.create_file t.fs ~dir:ctx_ino ~owner:t.owner name with
              | Error code -> Vmsg.reply code
              | Ok ino -> open_existing t ~name ~mode ino)
          | Vmsg.Read | Vmsg.Directory_listing -> Vmsg.reply Reply.Not_found))
  | _ :: _ -> Vmsg.reply Reply.Not_found

(* Resolve all-but-last components of a path local to this server
   (used by Rename's second name). *)
let resolve_local_dir t ~ctx_ino components =
  let rec loop dir = function
    | [] -> Error Reply.Illegal_name
    | [ last ] -> Ok (dir, last)
    | c :: rest -> (
        match Fs.lookup t.fs ~dir c with
        | Some (Fs.Dir_entry ino) -> loop ino rest
        | Some (Fs.Remote_link _) -> Error Reply.No_permission
        | Some (Fs.File_entry _) -> Error Reply.Not_a_context
        | None -> Error Reply.Not_found)
  in
  loop ctx_ino components

let handle_load_file t self ~sender ~ctx_ino ~remaining =
  match remaining with
  | [ name ] -> (
      match Fs.lookup t.fs ~dir:ctx_ino name with
      | Some (Fs.File_entry ino) -> (
          match Fs.read_file t.fs ~ino with
          | Error code -> Vmsg.reply code
          | Ok data -> (
              match Kernel.move_to self ~sender data with
              | Ok () -> Vmsg.ok ~payload:(Vmsg.P_count (Bytes.length data)) ()
              | Error Kernel.Bad_buffer -> Vmsg.reply Reply.Invalid_instance
              | Error _ -> Vmsg.reply Reply.Server_error))
      | Some _ -> Vmsg.reply Reply.No_permission
      | None -> Vmsg.reply Reply.Not_found)
  | _ -> Vmsg.reply Reply.Not_found

(* The accounts context: a flat name space of a different object type,
   served by the same protocol machinery. An account's home directory is
   a context, so MapContext maps through it. *)
let accounts_context t =
  let handle_name (msg : Vmsg.t) name found =
    let open Vmsg in
    if msg.code = Op.create_object then
      answer (create_account t ~now:(Vsim.Engine.now t.engine) name)
    else if msg.code = Op.remove_object then answer (remove_account t name)
    else if msg.code = Op.map_context then
      match found with
      | Some a ->
          ok
            ~payload:(P_context_spec (spec t ~context:(ctx_of_ino a.acct_home)))
            ()
      | None -> reply Reply.Not_found
    else reply Reply.Bad_operation
  in
  {
    Csnh.directory = "[accounts]";
    owner = t.owner;
    objects = (fun () -> List.map (Hashtbl.find t.accounts) (account_names t));
    describe = describe_account t;
    find = (fun name -> Ok (Hashtbl.find_opt t.accounts name));
    listings = Instance_server.listings t.instances;
    handle_name;
  }

let handle_csname t self ~accounts ~sender (msg : Vmsg.t) _req ctx remaining =
  let open Vmsg in
  if ctx = Context.Well_known.accounts then
    Csnh.flat_reply accounts ~server:(pid t) msg ctx remaining
  else
  match dir_of_ctx t ctx with
  | exception Not_found -> reply Reply.Bad_context
  | ctx_ino ->
      if msg.code = Op.open_instance then
        match msg.payload with
        | P_open { mode } -> handle_open t ~ctx_ino ~remaining ~mode
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.load_file then
        handle_load_file t self ~sender ~ctx_ino ~remaining
      else if msg.code = Op.query_name then
        match remaining with
        | [] -> ok ~payload:(P_descriptor (describe_dir t ctx_ino)) ()
        | [ name ] -> (
            match Fs.lookup t.fs ~dir:ctx_ino name with
            | Some entry ->
                charge t Calibration.descriptor_fabricate_cpu;
                ok ~payload:(P_descriptor (Fs.describe_entry t.fs ~name entry)) ()
            | None -> reply Reply.Not_found)
        | _ -> reply Reply.Not_found
      else if msg.code = Op.modify_name then
        match (remaining, msg.payload) with
        | [ name ], P_descriptor requested -> (
            match Fs.lookup t.fs ~dir:ctx_ino name with
            | Some entry -> answer (Fs.modify_entry t.fs entry requested)
            | None -> reply Reply.Not_found)
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.map_context then
        match remaining with
        | [] -> ok ~payload:(P_context_spec (spec t ~context:(ctx_of_ino ctx_ino))) ()
        | [ name ] ->
            if Fs.lookup t.fs ~dir:ctx_ino name = None then reply Reply.Not_found
            else reply Reply.Not_a_context
        | _ -> reply Reply.Not_found
      else if msg.code = Op.create_object then
        match (remaining, msg.payload) with
        | [ name ], P_create { directory } ->
            let make = if directory then Fs.mkdir else Fs.create_file in
            answer (make t.fs ~dir:ctx_ino ~owner:t.owner name)
        | [], P_create _ ->
            (* The name resolved to an existing context: the walk
               consumed it, so this create names something that already
               exists. *)
            reply Reply.Duplicate_name
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.remove_object then
        match remaining with
        | [ name ] when names_well_known t ~dir:ctx_ino name ->
            reply Reply.No_permission
        | [ name ] -> answer (Fs.unlink t.fs ~dir:ctx_ino name)
        | [] -> (
            (* The context itself, named with nothing after it (a
               '[prefix]' bound to it): unlink it from its parent
               (well-known contexts are not removable). *)
            if
              ctx_ino = Fs.root_ino || ctx_ino = t.home_ino
              || ctx_ino = t.programs_ino || ctx_ino = t.users_ino
            then reply Reply.No_permission
            else
              match Fs.find t.fs ctx_ino with
              | None -> reply Reply.Not_found
              | Some node ->
                  answer
                    (Fs.unlink t.fs ~dir:node.Fs.parent node.Fs.name_in_parent))
        | _ -> reply Reply.Not_found
      else if msg.code = Op.rename_object then
        match (remaining, msg.payload) with
        | [ name ], P_name _ when names_well_known t ~dir:ctx_ino name ->
            reply Reply.No_permission
        | [ name ], P_name new_path -> (
            match resolve_local_dir t ~ctx_ino (Csname.components new_path) with
            | Error code -> reply code
            | Ok (new_dir, _) when names_ancestor t ~dir:ctx_ino name new_dir ->
                (* A directory is not moved into its own subtree. *)
                reply Reply.No_permission
            | Ok (new_dir, new_name) ->
                answer (Fs.rename t.fs ~dir:ctx_ino name ~new_dir new_name))
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.add_context_name then
        match (remaining, msg.payload) with
        | [ name ], P_context_spec target ->
            (* A cross-server pointer: the curved arrow of Figure 4. *)
            answer (Fs.add_remote_link t.fs ~dir:ctx_ino name target)
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.delete_context_name then
        match remaining with
        | [ name ] -> (
            match Fs.lookup t.fs ~dir:ctx_ino name with
            | Some (Fs.Remote_link _) ->
                answer (Fs.unlink t.fs ~dir:ctx_ino name)
            | Some _ -> reply Reply.No_permission
            | None -> reply Reply.Not_found)
        | _ -> reply Reply.Not_found
      else reply Reply.Bad_operation

(* Count bytes served/stored against (host, server-name, op). *)
let io_bytes t op n =
  match t.events with Some r -> Events.add r op n | None -> ()

let handle_other t ~sender:_ (msg : Vmsg.t) =
  let open Vmsg in
  match Instance_server.handle_io t.instances t msg with
  | Some reply_msg ->
      (* Count the bytes each read served and each write stored. *)
      (match reply_msg.payload with
      | P_data data -> io_bytes t "read-bytes" (Bytes.length data)
      | P_count n -> io_bytes t "write-bytes" n
      | _ -> ());
      Some reply_msg
  | None ->
      if msg.code = Op.set_instance_size then
        match msg.payload with
        | P_set_size { instance; size } -> (
            match Instance_server.find t.instances instance with
            | None -> Some (reply Reply.Invalid_instance)
            | Some (Instance_server.Listing _ | Object { of_mode = Read; _ }) ->
                Some (reply Reply.No_permission)
            | Some (Object f) -> (
                match Fs.set_size t.fs ~ino:f.of_ino size with
                | Ok () -> Some (ok ())
                | Error code -> Some (reply code)))
        | _ -> None
      else if msg.code = Op.open_by_low_id then
        match msg.payload with
        | P_low_id { low_id; mode } -> (
            match Fs.find t.fs low_id with
            | Some node when node.Fs.kind = `File ->
                let name =
                  Option.value ~default:"?" (Fs.path_of_ino t.fs low_id)
                in
                Some (open_existing t ~name ~mode low_id)
            | Some _ | None -> Some (reply Reply.Not_found))
        | _ -> Some (reply Reply.Bad_operation)
      else if msg.code = Op.inverse_map_context then
        match msg.payload with
        | P_context_id ctx -> (
            match dir_of_ctx t ctx with
            | exception Not_found -> Some (reply Reply.Bad_context)
            | ino -> (
                match Fs.path_of_ino t.fs ino with
                | Some path -> Some (ok ~payload:(P_name path) ())
                | None -> Some (reply Reply.Not_found)))
        | _ -> Some (reply Reply.Bad_operation)
      else if msg.code = Op.inverse_map_instance then
        match msg.payload with
        | P_instance_arg instance -> (
            match Instance_server.find t.instances instance with
            | Some (Instance_server.Object f) -> (
                match Fs.path_of_ino t.fs f.of_ino with
                | Some path -> Some (ok ~payload:(P_name path) ())
                | None -> Some (ok ~payload:(P_name f.of_name) ()))
            | Some (Listing { directory; _ }) ->
                Some (ok ~payload:(P_name directory) ())
            | None -> Some (reply Reply.Invalid_instance))
        | _ -> Some (reply Reply.Bad_operation)
      else None

let lookup_for_walk t ctx component =
  if ctx = Context.Well_known.accounts then Csnh.Stop
  else
  match dir_of_ctx t ctx with
  | exception Not_found -> Csnh.Stop
  | dir -> (
      match Fs.lookup t.fs ~dir component with
      | Some (Fs.Dir_entry ino) -> Csnh.Descend (ctx_of_ino ino)
      | Some (Fs.Remote_link spec) -> Csnh.Cross spec
      | Some (Fs.File_entry _) | None -> Csnh.Stop)

(* Register the serving process and handlers for an existing state
   record; shared by cold start and restart-from-disk. *)
let spawn_server host t =
  t.events <-
    Some
      (Events.make (Kernel.domain_of_host host) ~host:(Kernel.host_name host)
         ~server:t.server_name ());
  let accounts = accounts_context t in
  let handlers self =
    {
      Csnh.valid_context =
        (fun ctx ->
          ctx = Context.Well_known.accounts
          ||
          match dir_of_ctx t ctx with
          | _ -> true
          | exception Not_found -> false);
      lookup = lookup_for_walk t;
      handle_csname =
        (fun ~sender msg req ctx remaining ->
          (* Replicated writes arrive stamped with the coordinator's
             (origin, seq): admit each pair once and in order, answer
             retries and replays from the cache (write-all idempotence).
             A gap means this member missed an earlier write: refuse
             with Retry — the out-of-sync rejection the coordinator
             treats as "member did not apply" — and wait for a log
             replay to deliver the missing writes in order. *)
          match msg.Vmsg.wseq with
          | Some { Vmsg.origin; seq } -> (
              match Seq_guard.admit t.guard ~origin ~seq with
              | `Replay (Some cached) -> cached
              | `Replay None -> Vmsg.ok ()
              | `Gap -> Vmsg.reply Reply.Retry
              | `Fresh ->
                  let r =
                    handle_csname t self ~accounts ~sender msg req ctx remaining
                  in
                  Seq_guard.record t.guard ~origin ~seq r;
                  r)
          | None -> handle_csname t self ~accounts ~sender msg req ctx remaining);
      handle_other = (fun ~sender msg -> handle_other t ~sender msg);
    }
  in
  let server_pid =
    Kernel.spawn host ~name:t.server_name (fun self ->
        Csnh.serve self ~stats:t.stats (handlers self))
  in
  t.pid <- Some server_pid;
  (match t.admission_cfg with
  | Some cfg -> Admission.install (Kernel.domain_of_host host) server_pid cfg
  | None -> ());
  Kernel.set_pid host ~service:Service.Id.storage server_pid t.scope

(* [restart_from old host] boots a fresh server process over the state
   of a crashed one — the disk (and the directory structure it holds)
   survived the crash; open instances did not. The new process gets a
   new pid and re-registers the storage service in the scope [start]
   was given, which is what logical prefix bindings re-resolve to
   (§6). *)
let restart_from old host =
  let t =
    {
      old with
      instances = Instance_server.create (kind (Fs.block_size old.fs));
      pid = None;
    }
  in
  (* Anything buffered in the dead server's memory is gone — including
     the cached replies to replicated writes (the applied marks are on
     disk and survive). *)
  Fs.drop_caches t.fs;
  Seq_guard.drop_replies t.guard;
  spawn_server host t;
  t

(* [start host ~name ~owner] boots a storage server on [host] with the
   standard layout (/bin as the program directory, /users/<owner> as the
   home directory), and registers the storage service. *)
let start host ~name ?(owner = "system") ?(scope = Service.Both) () =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let disk = Disk.create engine in
  let filesystem = Fs.create ~owner disk engine in
  let t =
    {
      server_name = name;
      owner;
      scope;
      fs = filesystem;
      disk;
      engine;
      instances = Instance_server.create (kind (Fs.block_size filesystem));
      read_ahead = 1;
      home_ino = Fs.root_ino;
      programs_ino = Fs.root_ino;
      users_ino = Fs.root_ino;
      accounts = Hashtbl.create 8;
      stats = Csnh.make_stats name;
      guard = Seq_guard.create ();
      pid = None;
      events = None;
      admission_cfg = None;
    }
  in
  (* Standard layout. *)
  let bin =
    match Fs.mkdir filesystem ~dir:Fs.root_ino ~owner "bin" with
    | Ok ino -> ino
    | Error _ -> assert false
  in
  let users =
    match Fs.mkdir filesystem ~dir:Fs.root_ino ~owner "users" with
    | Ok ino -> ino
    | Error _ -> assert false
  in
  let home =
    match Fs.mkdir filesystem ~dir:users ~owner owner with
    | Ok ino -> ino
    | Error _ -> assert false
  in
  (match Fs.mkdir filesystem ~dir:Fs.root_ino ~owner "tmp" with
  | Ok _ | Error _ -> ());
  t.programs_ino <- bin;
  t.home_ino <- home;
  t.users_ino <- users;
  Hashtbl.replace t.accounts owner
    { acct_name = owner; acct_created = 0.0; acct_home = home };
  spawn_server host t;
  t
