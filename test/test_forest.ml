(* Model-based testing of distributed name interpretation.

   Generate a random naming forest — directories, files and cross-server
   context pointers over three file servers — plus random names, and
   check that protocol-level resolution (the §5.4 walk with kernel
   forwarding) agrees with a pure reference resolver over the same
   structure. *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
open Vnaming

(* --- the reference model --- *)

type mentry = M_file | M_dir of mdir | M_link of int * string list
(* link target: (server index, absolute dir path components) *)

and mdir = (string, mentry) Hashtbl.t

type model = mdir array (* one root per server *)

let model_resolve (model : model) ~server components =
  (* Returns [`File of server * path], [`Dir], or [`Missing]. *)
  let rec walk server (dir : mdir) consumed = function
    | [] -> `Dir
    | c :: rest -> (
        match Hashtbl.find_opt dir c with
        | Some M_file -> if rest = [] then `File (server, List.rev (c :: consumed)) else `Missing
        | Some (M_dir sub) -> walk server sub (c :: consumed) rest
        | Some (M_link (target_server, target_path)) -> (
            match dir_of_path model.(target_server) target_path with
            | Some target_dir -> walk target_server target_dir [] rest
            | None -> `Missing)
        | None -> `Missing)
  and dir_of_path dir = function
    | [] -> Some dir
    | c :: rest -> (
        match Hashtbl.find_opt dir c with
        | Some (M_dir sub) -> dir_of_path sub rest
        | _ -> None)
  in
  walk server model.(server) [] components

(* --- generation --- *)

let gen_forest prng =
  let model : model = Array.init 3 (fun _ -> Hashtbl.create 8) in
  let dirs = ref (List.init 3 (fun s -> (s, [], model.(s)))) in
  (* (server, path, table) *)
  let fresh_name used =
    let rec loop () =
      let n = Vworkload.Generator.word prng in
      if Hashtbl.mem used n then loop () else n
    in
    loop ()
  in
  (* Directories. *)
  for _ = 1 to 12 do
    let server, path, table = Vsim.Prng.pick prng !dirs in
    let name = fresh_name table in
    let sub = Hashtbl.create 4 in
    Hashtbl.replace table name (M_dir sub);
    dirs := (server, path @ [ name ], sub) :: !dirs
  done;
  (* Files. *)
  let files = ref [] in
  for _ = 1 to 15 do
    let server, path, table = Vsim.Prng.pick prng !dirs in
    let name = fresh_name table in
    Hashtbl.replace table name M_file;
    files := (server, path @ [ name ]) :: !files
  done;
  (* Cross-server links (possibly cyclic; walking always terminates
     because every hop consumes a component). *)
  for _ = 1 to 6 do
    let server, _, table = Vsim.Prng.pick prng !dirs in
    let target_server, target_path, _ = Vsim.Prng.pick prng !dirs in
    if target_server <> server then begin
      let name = fresh_name table in
      Hashtbl.replace table name (M_link (target_server, target_path))
    end
  done;
  (model, !files, !dirs)

(* Materialize the model in the real servers. *)
let build_real (t : Scenario.t) (model : model) =
  let fs_of s = File_server.fs (Scenario.file_server t s) in
  (* First pass: directories and files; remember dir inos by path. *)
  let ino_of : (int * string list, int) Hashtbl.t = Hashtbl.create 32 in
  let rec build server path (table : mdir) dir_ino =
    Hashtbl.replace ino_of (server, path) dir_ino;
    Hashtbl.iter
      (fun name entry ->
        match entry with
        | M_file -> (
            match Fs.create_file (fs_of server) ~dir:dir_ino ~owner:"gen" name with
            | Ok ino ->
                ignore
                  (Fs.write_file (fs_of server) ~ino
                     (Bytes.of_string (String.concat "/" (path @ [ name ]))))
            | Error _ -> failwith "gen create")
        | M_dir sub -> (
            match Fs.mkdir (fs_of server) ~dir:dir_ino ~owner:"gen" name with
            | Ok ino -> build server (path @ [ name ]) sub ino
            | Error _ -> failwith "gen mkdir")
        | M_link _ -> ())
      table
  in
  Array.iteri (fun s table -> build s [] table Fs.root_ino) model;
  (* Second pass: links (targets now exist). *)
  let rec link server path (table : mdir) =
    Hashtbl.iter
      (fun name entry ->
        match entry with
        | M_link (target_server, target_path) ->
            let target_ino = Hashtbl.find ino_of (target_server, target_path) in
            let spec =
              File_server.spec
                (Scenario.file_server t target_server)
                ~context:
                  (if target_ino = Fs.root_ino then Context.Well_known.default
                   else target_ino + Context.Well_known.first_ordinary)
            in
            let dir_ino = Hashtbl.find ino_of (server, path) in
            ignore (Fs.add_remote_link (fs_of server) ~dir:dir_ino name spec)
        | M_dir sub -> link server (path @ [ name ]) sub
        | M_file -> ())
      table
  in
  Array.iteri (fun s table -> link s [] table) model

(* Random name generation: mostly valid walks through the model, with
   occasional corruption. *)
let gen_names prng (model : model) files =
  let from_files =
    List.filteri (fun i _ -> i mod 2 = 0) files
    |> List.map (fun (s, path) -> (s, path))
  in
  let corrupted =
    List.filteri (fun i _ -> i mod 3 = 0) files
    |> List.map (fun (s, path) ->
           let path =
             List.mapi
               (fun i c ->
                 if i = List.length path - 1 && Vsim.Prng.bool prng then
                   c ^ "zz"
                 else c)
               path
           in
           (s, path))
  in
  ignore model;
  from_files @ corrupted

let run_one seed =
  let prng = Vsim.Prng.create ~seed in
  let model, files, _dirs = gen_forest prng in
  let t = Scenario.build ~workstations:1 ~file_servers:3 ~seed () in
  build_real t model;
  let names = gen_names prng model files in
  let disagreements = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         List.iter
           (fun (server, components) ->
             let name = String.concat "/" components in
             let expected = model_resolve model ~server components in
             Runtime.set_current_context env
               (File_server.spec (Scenario.file_server t server)
                  ~context:Context.Well_known.default);
             let actual = Runtime.open_ env ~mode:Vmsg.Read name in
             let verdict_matches =
               match (expected, actual) with
               | `File (owner, path), Ok instance ->
                   (* Content encodes the owning server's path: checks
                      that forwarding landed on the right object. *)
                   let content =
                     match Vio.Client.read_all self instance with
                     | Ok b -> Bytes.to_string b
                     | Error _ -> "<unreadable>"
                   in
                   ignore (Vio.Client.release self instance);
                   ignore owner;
                   content = String.concat "/" path
               | (`Missing | `Dir), Error _ -> true
               | `Dir, Ok instance ->
                   (* Opening a directory name in Read mode is allowed to
                      fail or to return the context directory; either is
                      protocol-conforming. *)
                   ignore (Vio.Client.release self instance);
                   true
               | `File _, Error _ -> false
               | `Missing, Ok _ -> false
             in
             if not verdict_matches then
               disagreements := (server, name, expected) :: !disagreements)
           names;
         ignore env));
  Scenario.run t;
  !disagreements

let prop_forest_matches_model =
  QCheck.Test.make ~name:"protocol resolution matches the reference model"
    ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      match run_one seed with
      | [] -> true
      | (server, name, _) :: _ ->
          QCheck.Test.fail_reportf "disagreement on fs%d:%S" server name)

let suite =
  [ ("forest", [ QCheck_alcotest.to_alcotest prop_forest_matches_model ]) ]
