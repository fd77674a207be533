(* End-to-end tests of the whole installation: naming through the
   run-time library, prefix routing, cross-server forwarding, the
   services, failure behaviour and the paper's structural claims. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Prefix_server = Vnaming.Prefix_server
module Fs = Vservices.Fs
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Vio.Verr.pp e

(* Build a scenario, run [body] as a client on ws0, require completion. *)
let run_client ?(build = fun () -> Scenario.build ()) body =
  let t = build () in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         body t self env;
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed;
  t

(* --- basic file access through the runtime --- *)

let test_write_read_via_prefix () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "write" (Runtime.write_file env "[home]notes.txt"
              (Bytes.of_string "hello naming"));
         let back = ok_exn "read" (Runtime.read_file env "[home]notes.txt") in
         Alcotest.(check string) "roundtrip" "hello naming" (Bytes.to_string back)))

let test_write_read_current_context () =
  ignore
    (run_client (fun _t _self env ->
         (* Current context is fs0's root: plain names go straight
            there. *)
         ok_exn "write" (Runtime.write_file env "tmp/direct.txt" (Bytes.of_string "x"));
         let back = ok_exn "read" (Runtime.read_file env "tmp/direct.txt") in
         Alcotest.(check string) "direct" "x" (Bytes.to_string back)))

let test_same_name_different_contexts () =
  (* §5.2: "naming.mss" can denote different files depending on the
     context interpreting it. *)
  ignore
    (run_client (fun _t _self env ->
         ok_exn "write fs0" (Runtime.write_file env "[fs0]users/system/naming.mss"
              (Bytes.of_string "on fs0"));
         ok_exn "write fs1" (Runtime.write_file env "[fs1]users/system/naming.mss"
              (Bytes.of_string "on fs1"));
         let a = ok_exn "read fs0" (Runtime.read_file env "[fs0]users/system/naming.mss") in
         let b = ok_exn "read fs1" (Runtime.read_file env "[fs1]users/system/naming.mss") in
         Alcotest.(check string) "fs0 copy" "on fs0" (Bytes.to_string a);
         Alcotest.(check string) "fs1 copy" "on fs1" (Bytes.to_string b)))

let test_open_missing_fails () =
  ignore
    (run_client (fun _t _self env ->
         match Runtime.read_file env "[home]does-not-exist" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | Ok _ -> Alcotest.fail "missing file opened"
         | Error e -> Alcotest.failf "unexpected error: %a" Vio.Verr.pp e))

let test_unknown_prefix_fails () =
  ignore
    (run_client (fun _t _self env ->
         match Runtime.read_file env "[nosuch]x" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | Ok _ -> Alcotest.fail "unknown prefix resolved"
         | Error e -> Alcotest.failf "unexpected error: %a" Vio.Verr.pp e))

let test_deep_paths () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mkdir a" (Runtime.create env ~directory:true "[home]a");
         ok_exn "mkdir b" (Runtime.create env ~directory:true "[home]a/b");
         ok_exn "mkdir c" (Runtime.create env ~directory:true "[home]a/b/c");
         ok_exn "write deep"
           (Runtime.write_file env "[home]a/b/c/deep.txt" (Bytes.of_string "deep"));
         let back = ok_exn "read deep" (Runtime.read_file env "[home]a/b/c/deep.txt") in
         Alcotest.(check string) "deep content" "deep" (Bytes.to_string back)))

(* --- object operations --- *)

let test_query_and_modify () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "write" (Runtime.write_file env "[home]f.txt" (Bytes.of_string "12345"));
         let d = ok_exn "query" (Runtime.query env "[home]f.txt") in
         Alcotest.(check int) "size" 5 d.Descriptor.size;
         Alcotest.(check bool) "type" true (d.Descriptor.obj_type = Descriptor.File);
         (* Make it read-only through the uniform modify operation. *)
         ok_exn "modify"
           (Runtime.modify env "[home]f.txt" { d with Descriptor.writable = false });
         (match Runtime.write_file env "[home]f.txt" (Bytes.of_string "nope") with
         | Error (Vio.Verr.Denied Reply.No_permission) -> ()
         | _ -> Alcotest.fail "write to read-only file must fail");
         let d' = ok_exn "re-query" (Runtime.query env "[home]f.txt") in
         Alcotest.(check bool) "now read-only" false d'.Descriptor.writable))

(* The message proper holds a name's length in 16 bits: a longer name,
   or a longer owner in a modification record, is an illegal name. *)
let test_long_strings_refused () =
  let long = String.make 70_000 'x' in
  ignore
    (run_client (fun _t _self env ->
         (match Runtime.create env ("[home]" ^ long) with
         | Error (Vio.Verr.Denied Reply.Illegal_name) -> ()
         | Ok () -> Alcotest.fail "a 70,000-byte name was created"
         | Error e -> Alcotest.failf "create: %a" Vio.Verr.pp e);
         ok_exn "create" (Runtime.create env "[home]owned");
         let d = ok_exn "query" (Runtime.query env "[home]owned") in
         let requested = { d with Descriptor.owner = long } in
         match Runtime.modify env "[home]owned" requested with
         | Error (Vio.Verr.Denied Reply.Illegal_name) -> ()
         | Ok () -> Alcotest.fail "a 70,000-byte owner was set"
         | Error e -> Alcotest.failf "modify: %a" Vio.Verr.pp e))

(* A name under the CSname bound whose description record would not
   fit its 16-bit length word is refused at Create, so its directory
   still lists: a record of 24 bytes, the name and the owner ("system")
   comes to 65,550 bytes here. *)
let test_long_record_refused () =
  let long = String.make 65_520 'x' in
  ignore
    (run_client (fun _t _self env ->
         (match Runtime.create env ("[home]" ^ long) with
         | Error (Vio.Verr.Denied Reply.Illegal_name) -> ()
         | Ok () -> Alcotest.fail "a 65,520-byte name was created"
         | Error e -> Alcotest.failf "create: %a" Vio.Verr.pp e);
         ignore (ok_exn "list" (Runtime.list_directory env "[home]"))))

(* An owner that would take its entry's record past 65,535 bytes is
   refused at ModifyName, and the directory still lists. *)
let test_long_owner_refused () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "create" (Runtime.create env "[home]owned");
         let d = ok_exn "query" (Runtime.query env "[home]owned") in
         (* 24 + 5 + 65,507 = 65,536 bytes. *)
         let requested = { d with Descriptor.owner = String.make 65_507 'o' } in
         (match Runtime.modify env "[home]owned" requested with
         | Error (Vio.Verr.Denied Reply.Illegal_name) -> ()
         | Ok () -> Alcotest.fail "an owner past the record's bound was set"
         | Error e -> Alcotest.failf "modify: %a" Vio.Verr.pp e);
         let fits = { d with Descriptor.owner = String.make 65_506 'o' } in
         ok_exn "modify to the bound" (Runtime.modify env "[home]owned" fits);
         let records = ok_exn "list" (Runtime.list_directory env "[home]") in
         Alcotest.(check (list int)) "the owner at the bound is listed"
           [ 65_506 ]
           (List.filter_map
              (fun r ->
                if r.Descriptor.name = "owned" then
                  Some (String.length r.Descriptor.owner)
                else None)
              records)))

(* A flat context judges a name by the record it would list for it,
   attributes included: a printer job's state, a window's geometry, a
   connection's state and a binding's target. Each name refused here
   fits a record with no attributes (24 bytes, the name and the owner
   come to at most 65,535), so only its attributes take it past the
   bound. A connection is judged by its longest state, "established",
   three bytes longer than the "syn-sent" it opens in; a window's
   record also grows when a move lengthens its geometry. The exception
   server judges a report the same way, by the record its text would
   make. Each listing still reads. *)
let test_flat_record_refused () =
  ignore
    (run_client (fun t self env ->
         let refused what = function
           | Error (Vio.Verr.Denied Reply.Illegal_name) -> ()
           | Ok () -> Alcotest.failf "%s was accepted" what
           | Error e -> Alcotest.failf "%s: %a" what Vio.Verr.pp e
         in
         let name ?(slack = 0) owner =
           String.make (65_535 - 24 - String.length owner - slack) 'x'
         in
         refused "a job"
           (Runtime.write_file env ("[printer]" ^ name "system")
              (Bytes.of_string "page"));
         refused "a window" (Runtime.create env ("[windows]" ^ name "system"));
         (* 24 + 65,487 + 6 + 9 + 8 = 65,534 bytes while the connection
            opens; 65,537 once it is established. *)
         refused "a connection"
           (Runtime.write_file env
              ("[internet]" ^ name ~slack:21 "system" ^ ":80")
              (Bytes.of_string "GET"));
         let ps = Scenario.((t.workstations).(0).ws_prefix) in
         refused "a binding"
           (Runtime.add_prefix env
              (name (Prefix_server.owner ps))
              (`Static
                 (Context.spec ~server:(Prefix_server.pid ps)
                    ~context:Context.Well_known.default)));
         let window = "[windows]" ^ name ~slack:40 "system" in
         ok_exn "a window with room" (Runtime.create env window);
         let d = ok_exn "query the window" (Runtime.query env window) in
         let far = { d with Descriptor.attrs = [ ("x", string_of_int max_int) ] } in
         refused "a move past the bound" (Runtime.modify env window far);
         List.iter
           (fun dir ->
             ignore (ok_exn ("list " ^ dir) (Runtime.list_directory env dir)))
           [ "[printer]"; "[windows]"; "[internet]" ];
         (* The exception server's stub ignores replies, so the report
            goes by a plain Send; its text is the record's "exception"
            attribute. *)
         let exceptions =
           Vservices.Exception_server.pid
             Scenario.((t.workstations).(0).ws_exceptions)
         in
         let culprit = K.self_pid self and what = String.make 65_520 'x' in
         let report =
           Vmsg.request
             ~payload:(Vmsg.P_exception_report { culprit; what })
             Vmsg.Op.report_exception
         in
         (match K.send self exceptions report with
         | Ok (reply, _) ->
             refused "a report" (Result.map ignore (Vio.Verr.of_reply reply))
         | Error e -> Alcotest.failf "a report: %a" K.pp_error e);
         Runtime.set_current_context env
           (Context.spec ~server:exceptions
              ~context:Context.Well_known.default);
         ignore (ok_exn "list the exceptions" (Runtime.list_directory env ""))))

let test_remove_is_atomic_with_name () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "write" (Runtime.write_file env "[home]gone.txt" (Bytes.of_string "x"));
         ok_exn "remove" (Runtime.remove env "[home]gone.txt");
         (match Runtime.query env "[home]gone.txt" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | _ -> Alcotest.fail "name must be gone with the object");
         match Runtime.read_file env "[home]gone.txt" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | _ -> Alcotest.fail "object must be gone with the name"))

let test_rename () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "write" (Runtime.write_file env "[home]old.txt" (Bytes.of_string "v"));
         ok_exn "rename" (Runtime.rename env "[home]old.txt" ~new_name:"new.txt");
         (match Runtime.read_file env "[home]old.txt" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | _ -> Alcotest.fail "old name must be gone");
         let back = ok_exn "read new" (Runtime.read_file env "[home]new.txt") in
         Alcotest.(check string) "content follows" "v" (Bytes.to_string back)))

let test_list_directory () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "w1" (Runtime.write_file env "[home]a.txt" (Bytes.of_string "1"));
         ok_exn "w2" (Runtime.write_file env "[home]b.txt" (Bytes.of_string "22"));
         ok_exn "mkdir" (Runtime.create env ~directory:true "[home]sub");
         let records = ok_exn "list" (Runtime.list_directory env "[home]") in
         let names = List.map (fun d -> d.Descriptor.name) records in
         Alcotest.(check (list string)) "entries" [ "a.txt"; "b.txt"; "sub" ]
           (List.sort compare names);
         let find n = List.find (fun d -> d.Descriptor.name = n) records in
         Alcotest.(check bool) "a is file" true
           ((find "a.txt").Descriptor.obj_type = Descriptor.File);
         Alcotest.(check bool) "sub is dir" true
           ((find "sub").Descriptor.obj_type = Descriptor.Directory);
         Alcotest.(check int) "sizes fabricated" 2 (find "b.txt").Descriptor.size))

(* The §5.6 invariant: reading a context directory yields the same
   records as querying each object individually. *)
let test_directory_matches_queries () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "w1" (Runtime.write_file env "[home]x.txt" (Bytes.of_string "abc"));
         ok_exn "w2" (Runtime.write_file env "[home]y.txt" (Bytes.of_string "defgh"));
         let records = ok_exn "list" (Runtime.list_directory env "[home]") in
         List.iter
           (fun (d : Descriptor.t) ->
             let q = ok_exn "query" (Runtime.query env ("[home]" ^ d.Descriptor.name)) in
             Alcotest.(check string) "name agrees" d.Descriptor.name q.Descriptor.name;
             Alcotest.(check int) "size agrees" d.Descriptor.size q.Descriptor.size;
             Alcotest.(check bool) "type agrees" true
               (d.Descriptor.obj_type = q.Descriptor.obj_type))
           records))

(* --- contexts --- *)

let test_change_context () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[fs0]users/system/proj");
         ok_exn "write"
           (Runtime.write_file env "[fs0]users/system/proj/f.txt" (Bytes.of_string "ctx"));
         ignore (ok_exn "chdir" (Runtime.change_context env "[fs0]users/system/proj"));
         (* Now a bare relative name resolves in the new current context. *)
         let back = ok_exn "read relative" (Runtime.read_file env "f.txt") in
         Alcotest.(check string) "relative read" "ctx" (Bytes.to_string back)))

let test_current_context_name () =
  ignore
    (run_client (fun _t _self env ->
         ignore (ok_exn "chdir" (Runtime.change_context env "[fs0]users/system"));
         let name = ok_exn "inverse map" (Runtime.current_context_name env) in
         Alcotest.(check string) "server-local path" "/users/system" name))

let test_map_context_through_prefix () =
  ignore
    (run_client (fun t _self env ->
         let spec = ok_exn "resolve" (Runtime.resolve env "[fs1]users") in
         Alcotest.(check bool) "resolves to fs1's pid" true
           (Pid.equal spec.Context.server
              (File_server.pid (Scenario.file_server t 1)))))

(* --- cross-server links: the naming forest (Figure 4) --- *)

let test_cross_server_link_forwards () =
  ignore
    (run_client (fun t _self env ->
         (* Create a pointer in fs0's root to fs1's home context. *)
         let fs1_home =
           File_server.spec (Scenario.file_server t 1)
             ~context:Context.Well_known.home
         in
         ok_exn "link" (Runtime.link env "[fs0]fs1home" ~target:fs1_home);
         ok_exn "write via link"
           (Runtime.write_file env "[fs0]fs1home/linked.txt" (Bytes.of_string "across"));
         (* The file physically lives on fs1. *)
         let back = ok_exn "read direct"
             (Runtime.read_file env "[fs1]users/system/linked.txt")
         in
         Alcotest.(check string) "crossed servers" "across" (Bytes.to_string back)))

let test_link_reply_comes_from_target_server () =
  ignore
    (run_client (fun t _self env ->
         let fs1_root =
           File_server.spec (Scenario.file_server t 1)
             ~context:Context.Well_known.default
         in
         ok_exn "link" (Runtime.link env "[fs0]to-fs1" ~target:fs1_root);
         let instance =
           ok_exn "open across" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]to-fs1")
         in
         (* The Open reply must come from fs1 directly (kernel Forward
            semantics), so subsequent I/O goes straight there. *)
         Alcotest.(check bool) "server is fs1" true
           (Pid.equal instance.Vio.Client.server
              (File_server.pid (Scenario.file_server t 1)));
         ok_exn "release" (Vio.Client.release (Runtime.self env) instance)))

(* --- an operation on a name acts where the name is bound (§5.4) ---

   Remove, Rename, AddContextName, DeleteContextName, QueryName and
   ModifyName are answered by the context that holds the name's last
   component, whatever it names; Open and MapContext follow it. *)

(* F4's pointer: fs1 holds the directory /projects, and fs0's root holds
   "shared", a cross-server pointer to it. *)
let with_pointer ?(cache = false) body =
  ignore
    (run_client (fun t self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[fs1]projects");
         let target = ok_exn "resolve" (Runtime.resolve env "[fs1]projects") in
         ok_exn "link" (Runtime.link env "[fs0]shared" ~target);
         if cache then begin
           Runtime.enable_name_cache env true;
           (* An Open through the pointer caches the full name. *)
           ignore (ok_exn "list" (Runtime.list_directory env "[fs0]shared"));
           Alcotest.(check bool) "the full name is cached" true
             (Name_cache.mem (Runtime.name_cache env) "[fs0]shared")
         end;
         body t self env))

let expect_denied what code = function
  | Error (Vio.Verr.Denied c) when c = code -> ()
  | Ok _ -> Alcotest.failf "%s: expected %s, got OK" what (Reply.to_string code)
  | Error e ->
      Alcotest.failf "%s: expected %s, got %a" what (Reply.to_string code)
        Vio.Verr.pp e

(* The pointer is gone and fs1's directory is intact. *)
let pointer_gone env =
  expect_denied "pointer gone" Reply.Not_found
    (Runtime.query env "[fs0]shared");
  let d = ok_exn "target kept" (Runtime.query env "[fs1]projects") in
  Alcotest.(check bool) "still a directory" true
    (d.Descriptor.obj_type = Descriptor.Directory)

let test_remove_pointer () =
  with_pointer (fun _t _self env ->
      ok_exn "remove" (Runtime.remove env "[fs0]shared");
      pointer_gone env)

let test_remove_pointer_cached () =
  with_pointer ~cache:true (fun _t _self env ->
      ok_exn "remove" (Runtime.remove env "[fs0]shared");
      pointer_gone env)

(* A bare "[scratch]" names the prefix server's binding itself: an
   operation on it acts on the binding, in the prefix server's own
   context, as on the unprefixed name "scratch", and never on the fs1
   directory the binding leads to. With the name cache on, a listing of
   "[scratch]" caches the binding first. *)
let test_remove_bare_prefix ?(cache = false) () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[fs1]scratch");
         let target = ok_exn "resolve" (Runtime.resolve env "[fs1]scratch") in
         ok_exn "bind" (Runtime.add_prefix env "scratch" (`Static target));
         if cache then begin
           Runtime.enable_name_cache env true;
           ignore (ok_exn "list" (Runtime.list_directory env "[scratch]"));
           Alcotest.(check bool) "the binding is cached" true
             (Name_cache.mem (Runtime.name_cache env) "[scratch]")
         end;
         expect_denied "remove" Reply.Not_a_context
           (Runtime.remove env "[scratch]");
         let d = ok_exn "directory kept" (Runtime.query env "[fs1]scratch") in
         Alcotest.(check bool) "still a directory" true
           (d.Descriptor.obj_type = Descriptor.Directory);
         let b = ok_exn "query" (Runtime.query env "[scratch]") in
         Alcotest.(check (pair string string))
           "the binding's record" ("prefix", "scratch")
           (Descriptor.obj_type_to_string b.Descriptor.obj_type,
            b.Descriptor.name)))

let test_delete_pointer () =
  with_pointer (fun t self env ->
      let msg =
        Vmsg.request ~name:(Csname.make_req "[fs0]shared")
          Vmsg.Op.delete_context_name
      in
      let prefix = (Scenario.workstation t 0).Scenario.ws_prefix in
      ignore
        (ok_exn "delete"
           (Vio.Client.transact self ~server:(Prefix_server.pid prefix) msg));
      pointer_gone env)

let test_add_pointer_twice () =
  with_pointer (fun t _self env ->
      let target =
        File_server.spec (Scenario.file_server t 1)
          ~context:Context.Well_known.default
      in
      expect_denied "second add" Reply.Duplicate_name
        (Runtime.link env "[fs0]shared" ~target))

let test_rename_pointer () =
  with_pointer (fun _t _self env ->
      ok_exn "rename" (Runtime.rename env "[fs0]shared" ~new_name:"common");
      expect_denied "old name" Reply.Not_found
        (Runtime.query env "[fs0]shared");
      ignore
        (ok_exn "new name leads on" (Runtime.list_directory env "[fs0]common")))

let test_query_pointer () =
  with_pointer (fun _t _self env ->
      let q = ok_exn "query" (Runtime.query env "[fs0]shared") in
      let listed =
        List.find
          (fun d -> d.Descriptor.name = "shared")
          (ok_exn "list" (Runtime.list_directory env "[fs0]"))
      in
      Alcotest.(check bool) "a pointer" true
        (q.Descriptor.obj_type = Descriptor.Context_pointer);
      Alcotest.(check bool) "the listing's record" true (q = listed))

let test_rename_modify_directory () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[fs0]tmp/d");
         ok_exn "rename" (Runtime.rename env "[fs0]tmp/d" ~new_name:"e");
         expect_denied "old name" Reply.Not_found
           (Runtime.query env "[fs0]tmp/d");
         let d = ok_exn "query" (Runtime.query env "[fs0]tmp/e") in
         ok_exn "modify"
           (Runtime.modify env "[fs0]tmp/e"
              { d with Descriptor.writable = false });
         let d' = ok_exn "re-query" (Runtime.query env "[fs0]tmp/e") in
         Alcotest.(check bool) "a directory" true
           (d'.Descriptor.obj_type = Descriptor.Directory);
         Alcotest.(check bool) "now read-only" false d'.Descriptor.writable))

(* The well-known contexts stay where they are, and no directory moves
   into its own subtree. *)
let test_well_known_kept () =
  ignore
    (run_client (fun _t _self env ->
         List.iter
           (fun name ->
             expect_denied ("remove " ^ name) Reply.No_permission
               (Runtime.remove env name);
             expect_denied ("rename " ^ name) Reply.No_permission
               (Runtime.rename env name ~new_name:"moved"))
           [ "[fs0]users/system"; "[fs0]users"; "[fs0]bin" ];
         ignore (ok_exn "home kept" (Runtime.query env "[fs0]users/system"))))

let test_no_rename_into_subtree () =
  ignore
    (run_client (fun _t _self env ->
         List.iter
           (fun name ->
             ok_exn ("mkdir " ^ name)
               (Runtime.create env ~directory:true ("[fs0]tmp/" ^ name)))
           [ "a"; "a/b"; "c" ];
         expect_denied "into itself" Reply.No_permission
           (Runtime.rename env "[fs0]tmp/a" ~new_name:"a/x");
         expect_denied "into its child" Reply.No_permission
           (Runtime.rename env "[fs0]tmp/a" ~new_name:"a/b/x");
         ok_exn "under a sibling"
           (Runtime.rename env "[fs0]tmp/a" ~new_name:"c/a");
         ignore (ok_exn "moved" (Runtime.query env "[fs0]tmp/c/a/b"))))

(* --- prefix management --- *)

let test_add_delete_prefix () =
  ignore
    (run_client (fun t _self env ->
         let fs1_root =
           File_server.spec (Scenario.file_server t 1)
             ~context:Context.Well_known.default
         in
         ok_exn "add" (Runtime.add_prefix env "scratch" (`Static fs1_root));
         ok_exn "write" (Runtime.write_file env "[scratch]tmp/s.txt" (Bytes.of_string "s"));
         ok_exn "delete" (Runtime.delete_prefix env "scratch");
         (match Runtime.read_file env "[scratch]tmp/s.txt" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | _ -> Alcotest.fail "deleted prefix must stop resolving");
         match Runtime.add_prefix env "home" (`Static fs1_root) with
         | Error (Vio.Verr.Denied Reply.Duplicate_name) -> ()
         | _ -> Alcotest.fail "duplicate prefix must be rejected"))

(* Listing the prefix server's own context directory: with that context
   current, the empty name opens it. *)
let test_prefix_server_directory () =
  let t = Scenario.build () in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         let ws = Scenario.workstation t 0 in
         Runtime.set_current_context env
           (Context.spec ~server:(Prefix_server.pid ws.Scenario.ws_prefix)
              ~context:Context.Well_known.default);
         let instance =
           ok_exn "open prefix dir"
             (Runtime.open_ env ~mode:Vmsg.Directory_listing "")
         in
         let records = ok_exn "read dir" (Vio.Client.read_directory self instance) in
         ok_exn "release" (Vio.Client.release self instance);
         let names = List.map (fun d -> d.Descriptor.name) records in
         List.iter
           (fun expected ->
             Alcotest.(check bool)
               (Fmt.str "binding %s listed" expected)
               true (List.mem expected names))
           [ "storage"; "home"; "bin"; "printer"; "mail"; "terminals"; "fs0"; "fs1" ];
         List.iter
           (fun (d : Descriptor.t) ->
             Alcotest.(check bool) "typed as prefix binding" true
               (d.Descriptor.obj_type = Descriptor.Prefix_binding))
           records;
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "completed" true !completed

let test_prefix_server_footprint () =
  (* E5 sanity: the per-user prefix server's live data is small (the
     paper reports 2.6 KB including reserved directory space). *)
  let t = Scenario.build () in
  let ws = Scenario.workstation t 0 in
  let bytes = Prefix_server.data_bytes ws.Scenario.ws_prefix in
  Alcotest.(check bool)
    (Fmt.str "%d bytes for %d bindings" bytes
       (Prefix_server.binding_count ws.Scenario.ws_prefix))
    true
    (bytes > 0 && bytes < 2600)

(* --- logical bindings and failure (§6) --- *)

let test_logical_binding_survives_restart () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let outcome_before = ref None and outcome_after = ref None in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         ok_exn "write" (Runtime.write_file env "[storage]tmp/live.txt" (Bytes.of_string "1"));
         (* Crash the file server's host. *)
         let fs_host =
           Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0))
         in
         K.crash_host fs_host;
         (match Runtime.read_file env "[storage]tmp/live.txt" with
         | Error _ -> outcome_before := Some `Failed
         | Ok _ -> outcome_before := Some `Succeeded);
         (* Restart the host and a fresh server process: a new pid, the
            same service. The logical binding re-resolves via GetPid. *)
         K.restart_host fs_host;
         let fs' = File_server.start fs_host ~name:"fs0'" ~owner:"system" () in
         ignore fs';
         (match Runtime.write_file env "[storage]tmp/reborn.txt" (Bytes.of_string "2") with
         | Ok () -> outcome_after := Some `Succeeded
         | Error _ -> outcome_after := Some `Failed)));
  Scenario.run t;
  Alcotest.(check bool) "unreachable while down" true (!outcome_before = Some `Failed);
  Alcotest.(check bool) "logical binding recovers" true
    (!outcome_after = Some `Succeeded)

let test_static_binding_does_not_recover () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let outcome = ref None in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         let fs_host =
           Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0))
         in
         K.crash_host fs_host;
         K.restart_host fs_host;
         ignore (File_server.start fs_host ~name:"fs0'" ~owner:"system" ());
         (* The static [fs0] binding still names the dead pid. *)
         match Runtime.read_file env "[fs0]tmp/x" with
         | Error _ -> outcome := Some `Failed
         | Ok _ -> outcome := Some `Succeeded));
  Scenario.run t;
  Alcotest.(check bool) "stale static binding fails" true (!outcome = Some `Failed)

(* --- the walker utility: recursion over uniform listings --- *)

let test_walker_crosses_servers () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mk" (Runtime.create env ~directory:true "[fs0]proj");
         ok_exn "w1" (Runtime.write_file env "[fs0]proj/a.txt" (Bytes.make 10 'a'));
         ok_exn "w2" (Runtime.write_file env "[fs0]proj/b.txt" (Bytes.make 20 'b'));
         (* A cross-server pointer inside the walked tree. *)
         ok_exn "mk2" (Runtime.create env ~directory:true "[fs1]shared");
         ok_exn "w3" (Runtime.write_file env "[fs1]shared/c.txt" (Bytes.make 40 'c'));
         let target = ok_exn "resolve" (Runtime.resolve env "[fs1]shared") in
         ok_exn "link" (Runtime.link env "[fs0]proj/other" ~target);
         (* find: every .txt reachable from [fs0]proj, across the link. *)
         let hits =
           Vruntime.Walker.find env ~root:"[fs0]proj" (fun v ->
               v.Vruntime.Walker.v_descriptor.Descriptor.obj_type
               = Descriptor.File)
         in
         Alcotest.(check (list string)) "files found across servers"
           [ "[fs0]proj/a.txt"; "[fs0]proj/b.txt"; "[fs0]proj/other/c.txt" ]
           (List.sort compare hits);
         (* du: sizes accumulate across the pointer. *)
         Alcotest.(check int) "disk usage" 70
           (Vruntime.Walker.disk_usage env ~root:"[fs0]proj");
         (* The walk works identically over the prefix server's context. *)
         let prefix_bindings =
           Vruntime.Walker.find ~follow_pointers:false env ~root:"" (fun v ->
               v.Vruntime.Walker.v_descriptor.Descriptor.obj_type
               = Descriptor.Prefix_binding)
         in
         ignore prefix_bindings))

let test_walker_depth_limit () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mk a" (Runtime.create env ~directory:true "[fs0]d1");
         ok_exn "mk b" (Runtime.create env ~directory:true "[fs0]d1/d2");
         ok_exn "w" (Runtime.write_file env "[fs0]d1/d2/deep.txt" (Bytes.of_string "x"));
         let shallow =
           Vruntime.Walker.find ~max_depth:0 env ~root:"[fs0]d1" (fun v ->
               v.Vruntime.Walker.v_descriptor.Descriptor.obj_type
               = Descriptor.File)
         in
         Alcotest.(check (list string)) "depth limit respected" [] shallow;
         (* Cyclic links terminate thanks to the depth bound. *)
         let here = ok_exn "resolve" (Runtime.resolve env "[fs0]d1") in
         ok_exn "self link" (Runtime.link env "[fs0]d1/loop" ~target:here);
         let all =
           Vruntime.Walker.find ~max_depth:5 env ~root:"[fs0]d1" (fun _ -> true)
         in
         Alcotest.(check bool) "cyclic walk terminates" true
           (List.length all > 0)))

(* --- §5.2: a file server implementing files AND user accounts --- *)

let test_accounts_context () =
  ignore
    (run_client (fun t _self env ->
         let accounts_ctx =
           File_server.spec (Scenario.file_server t 0)
             ~context:Context.Well_known.accounts
         in
         ok_exn "bind" (Runtime.add_prefix env "accounts" (`Static accounts_ctx));
         (* The pre-existing system account is listed. *)
         let records = ok_exn "list" (Runtime.list_directory env "[accounts]") in
         Alcotest.(check (list string)) "initial accounts" [ "system" ]
           (List.map (fun d -> d.Descriptor.name) records);
         (* Create an account: its home directory appears atomically. *)
         ok_exn "create account" (Runtime.create env "[accounts]mann");
         let d = ok_exn "query" (Runtime.query env "[accounts]mann") in
         Alcotest.(check bool) "typed as account" true
           (d.Descriptor.obj_type = Descriptor.User_account);
         Alcotest.(check (option string)) "home recorded" (Some "/users/mann")
           (List.assoc_opt "home" d.Descriptor.attrs);
         ok_exn "use the home"
           (Runtime.write_file env "[fs0]users/mann/hello.txt" (Bytes.of_string "m"));
         (* Mapping through an account name yields its home context. *)
         let home_spec = ok_exn "map" (Runtime.resolve env "[accounts]mann") in
         ok_exn "bind home" (Runtime.add_prefix env "mann" (`Static home_spec));
         let back = ok_exn "read via account ctx" (Runtime.read_file env "[mann]hello.txt") in
         Alcotest.(check string) "account home context" "m" (Bytes.to_string back);
         (* Removal requires an empty home, like any directory. *)
         (match Runtime.remove env "[accounts]mann" with
         | Error (Vio.Verr.Denied Reply.No_permission) -> ()
         | _ -> Alcotest.fail "non-empty account must not be removable");
         ok_exn "clean home" (Runtime.remove env "[fs0]users/mann/hello.txt");
         ok_exn "remove account" (Runtime.remove env "[accounts]mann");
         match Runtime.query env "[accounts]mann" with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | _ -> Alcotest.fail "removed account still named"))

(* The owner's own account holds the well-known home context, so it
   cannot be removed: the home context keeps its name and stays
   usable. *)
let test_owner_account_kept () =
  ignore
    (run_client (fun t self _env ->
         let fs = File_server.pid (Scenario.file_server t 0) in
         let send ~context code ?payload name =
           match
             K.send self fs
               (Vmsg.request ~name:(Csname.make_req ~context name) ?payload code)
           with
           | Ok (reply, _) -> reply
           | Error e -> Alcotest.failf "send: %a" K.pp_error e
         in
         let code reply = Option.map Reply.to_string (Vmsg.reply_code reply) in
         Alcotest.(check (option string)) "owner's account refused"
           (Some (Reply.to_string Reply.No_permission))
           (code
              (send ~context:Context.Well_known.accounts Vmsg.Op.remove_object
                 "system"));
         (match
            (send ~context:Context.Well_known.home Vmsg.Op.query_name "")
              .Vmsg.payload
          with
         | Vmsg.P_descriptor d ->
             Alcotest.(check string) "home keeps its name" "/users/system"
               d.Descriptor.name
         | _ -> Alcotest.fail "QueryName on home carried no description");
         Alcotest.(check (option string)) "create in home"
           (Some (Reply.to_string Reply.Ok))
           (code
              (send ~context:Context.Well_known.home Vmsg.Op.create_object
                 ~payload:(Vmsg.P_create { directory = false })
                 "note.txt"))))

(* --- §7: a context implemented transparently by a server group --- *)

let test_replicated_context () =
  let t = Scenario.build ~workstations:1 ~file_servers:2 () in
  (* Both storage servers join one group and carry the same file. *)
  let group = K.create_group t.Scenario.domain in
  Array.iteri
    (fun i fs ->
      let host =
        Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr i))
      in
      K.join_group host ~group (File_server.pid fs);
      let fsys = File_server.fs fs in
      match Fs.create_file fsys ~dir:Fs.root_ino ~owner:"repl" "shared.txt" with
      | Ok ino -> (
          match Fs.write_file fsys ~ino (Bytes.of_string "replicated") with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "setup write")
      | Error _ -> Alcotest.fail "setup create")
    t.Scenario.file_servers;
  let ws = Scenario.workstation t 0 in
  (match
     Prefix_server.add_binding ws.Scenario.ws_prefix "repl"
       (Prefix_server.Replicated { group; context = Context.Well_known.default })
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "bind: %s" (Reply.to_string code));
  let before = ref "" and after = ref "" and repliers = ref [] in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         ignore self;
         (* The replicated context answers like any other. *)
         let i = ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[repl]shared.txt") in
         repliers := i.Vio.Client.server :: !repliers;
         before :=
           Bytes.to_string (ok_exn "read" (Vio.Client.read_all (Runtime.self env) i));
         ok_exn "release" (Vio.Client.release (Runtime.self env) i);
         (* Crash whichever member answered; the group still serves. *)
         let dead = List.hd !repliers in
         let dead_idx =
           if Pid.equal dead (File_server.pid (Scenario.file_server t 0)) then 0
           else 1
         in
         K.crash_host
           (Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr dead_idx)));
         let i = ok_exn "open after crash"
             (Runtime.open_ env ~mode:Vmsg.Read "[repl]shared.txt")
         in
         repliers := i.Vio.Client.server :: !repliers;
         after :=
           Bytes.to_string (ok_exn "read" (Vio.Client.read_all (Runtime.self env) i));
         ok_exn "release" (Vio.Client.release (Runtime.self env) i);
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed;
  Alcotest.(check string) "read before crash" "replicated" !before;
  Alcotest.(check string) "read after crash" "replicated" !after;
  match !repliers with
  | [ second; first ] ->
      Alcotest.(check bool) "different members served" true
        (not (Pid.equal second first))
  | _ -> Alcotest.fail "expected two opens"

let test_durable_restart () =
  (* The disk survives a host crash: a fresh server process over the old
     state serves the same files under a new pid, and logical bindings
     find it (the §6 recovery story, with data). *)
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let outcome = ref "" in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         ok_exn "write" (Runtime.write_file env "[storage]tmp/persist.txt"
              (Bytes.of_string "survives crashes"));
         let fs_host =
           Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0))
         in
         K.crash_host fs_host;
         K.restart_host fs_host;
         let fs' =
           File_server.restart_from (Scenario.file_server t 0) fs_host
         in
         Alcotest.(check bool) "new pid" false
           (Pid.equal (File_server.pid fs')
              (File_server.pid (Scenario.file_server t 0)));
         match Runtime.read_file env "[storage]tmp/persist.txt" with
         | Ok data -> outcome := Bytes.to_string data
         | Error e -> Alcotest.failf "read after restart: %a" Vio.Verr.pp e));
  Scenario.run t;
  Alcotest.(check string) "data survived" "survives crashes" !outcome

(* A restarted server re-registers in the scope it started with: a
   Local-scope server stays invisible to other workstations. *)
let test_restart_keeps_scope () =
  let t =
    Scenario.build ~workstations:2 ~file_servers:1 ~local_file_server_on:0 ()
  in
  let found = ref None and completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:1 (fun self _env ->
         let host addr = Option.get (K.host_of_addr t.Scenario.domain addr) in
         (* Only the local server is left to answer for storage. *)
         K.crash_host (host (Scenario.fs_addr 0));
         let local = Option.get t.Scenario.local_fs in
         ignore (K.destroy_process t.Scenario.domain (File_server.pid local));
         ignore (File_server.restart_from local (host (Scenario.ws_addr 0)));
         found := K.get_pid self ~service:Service.Id.storage Service.Both;
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed;
  Alcotest.(check bool) "not visible from another workstation" true
    (Option.is_none !found)

let test_copy_tree_across_servers () =
  ignore
    (run_client (fun _t _self env ->
         ok_exn "mk" (Runtime.create env ~directory:true "[fs0]site");
         ok_exn "mk2" (Runtime.create env ~directory:true "[fs0]site/sub");
         ok_exn "w1" (Runtime.write_file env "[fs0]site/index.txt" (Bytes.of_string "idx"));
         ok_exn "w2" (Runtime.write_file env "[fs0]site/sub/page.txt" (Bytes.of_string "pg"));
         ok_exn "dst" (Runtime.create env ~directory:true "[fs1]mirror");
         let copied =
           ok_exn "copy_tree"
             (Vruntime.Walker.copy_tree env ~src:"[fs0]site" ~dst:"[fs1]mirror")
         in
         Alcotest.(check int) "two files copied" 2 copied;
         Alcotest.(check string) "nested file arrived" "pg"
           (Bytes.to_string
              (ok_exn "read" (Runtime.read_file env "[fs1]mirror/sub/page.txt")));
         Alcotest.(check int) "sizes preserved" 5
           (Vruntime.Walker.disk_usage env ~root:"[fs1]mirror")))

(* --- client-side prefix cache ablation (§2.2 argues against it) --- *)

let test_prefix_cache_hit_and_staleness () =
  ignore
    (run_client (fun t _self env ->
         ok_exn "seed fs0"
           (Runtime.write_file env "[fs0]tmp/cache.txt" (Bytes.of_string "fs0 copy"));
         ok_exn "seed fs1"
           (Runtime.write_file env "[fs1]tmp/cache.txt" (Bytes.of_string "fs1 copy"));
         Runtime.enable_name_cache env true;
         (* Bind [data] to fs0 and cache the binding. *)
         let fs0_root =
           File_server.spec (Scenario.file_server t 0)
             ~context:Context.Well_known.default
         in
         let fs1_root =
           File_server.spec (Scenario.file_server t 1)
             ~context:Context.Well_known.default
         in
         ok_exn "bind" (Runtime.add_prefix env "data" (`Static fs0_root));
         ignore (ok_exn "resolve (fills cache)" (Runtime.resolve env "[data]"));
         let hits () = (Runtime.name_cache_stats env).Name_cache.hits in
         let before = hits () in
         let a = ok_exn "cached read" (Runtime.read_file env "[data]tmp/cache.txt") in
         Alcotest.(check bool) "cache was used" true (hits () > before);
         Alcotest.(check string) "fs0 content" "fs0 copy" (Bytes.to_string a);
         (* Rebind [data] to fs1 behind the cache's back. *)
         ok_exn "unbind" (Runtime.delete_prefix env "data");
         ok_exn "rebind" (Runtime.add_prefix env "data" (`Static fs1_root));
         (* The stale cache silently reads the WRONG server's file: the
            §2.2 inconsistency. *)
         let b = ok_exn "stale read" (Runtime.read_file env "[data]tmp/cache.txt") in
         Alcotest.(check string) "stale result served" "fs0 copy" (Bytes.to_string b);
         (* Once the stale target stops answering, the runtime falls
            back through the prefix server. *)
         Runtime.enable_name_cache env false;
         let c = ok_exn "uncached read" (Runtime.read_file env "[data]tmp/cache.txt") in
         Alcotest.(check string) "truth after disabling cache" "fs1 copy"
           (Bytes.to_string c)))

(* Random add/delete/resolve sequences on the prefix server, checked
   against an association-map model. *)
let prop_prefix_server_matches_model =
  QCheck.Test.make ~name:"prefix server matches a map model" ~count:12
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 1_000_000)
           (list_size (int_range 1 30)
              (pair (int_range 0 2)
                 (string_size ~gen:(char_range 'a' 'c') (int_range 1 2))))))
    (fun (seed, ops) ->
      let t = Scenario.build ~workstations:1 ~file_servers:2 ~seed () in
      let model : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let standard =
        [ "storage"; "home"; "bin"; "printer"; "mail"; "internet"; "terminals";
          "programs"; "windows"; "fs0"; "fs1" ]
      in
      let consistent = ref true in
      let completed = ref false in
      ignore
        (Scenario.spawn_client t ~ws:0 (fun self env ->
             let target =
               `Static
                 (File_server.spec (Scenario.file_server t 1)
                    ~context:Context.Well_known.default)
             in
             List.iter
               (fun (op, name) ->
                 (* Avoid colliding with the standard bindings. *)
                 let name = "q" ^ name in
                 match op with
                 | 0 -> (
                     let expect_ok = not (Hashtbl.mem model name) in
                     match (Runtime.add_prefix env name target, expect_ok) with
                     | Ok (), true -> Hashtbl.replace model name ()
                     | Error (Vio.Verr.Denied Reply.Duplicate_name), false -> ()
                     | _ -> consistent := false)
                 | 1 -> (
                     let expect_ok = Hashtbl.mem model name in
                     match (Runtime.delete_prefix env name, expect_ok) with
                     | Ok (), true -> Hashtbl.remove model name
                     | Error (Vio.Verr.Denied Reply.Not_found), false -> ()
                     | _ -> consistent := false)
                 | _ -> (
                     let expect_ok = Hashtbl.mem model name in
                     match (Runtime.resolve env ("[" ^ name ^ "]"), expect_ok) with
                     | Ok _, true | Error _, false -> ()
                     | _ -> consistent := false))
               ops;
             (* Final directory agrees with model + standard bindings;
                read the prefix server's own context directory. *)
             let ws = Scenario.workstation t 0 in
             Runtime.set_current_context env
               (Context.spec ~server:(Prefix_server.pid ws.Scenario.ws_prefix)
                  ~context:Context.Well_known.default);
             let listed =
               match Runtime.open_ env ~mode:Vmsg.Directory_listing "" with
               | Error _ -> [ "<open failed>" ]
               | Ok instance -> (
                   let records = Vio.Client.read_directory self instance in
                   ignore (Vio.Client.release self instance);
                   match records with
                   | Ok records ->
                       List.map (fun d -> d.Descriptor.name) records
                       |> List.filter (fun n -> not (List.mem n standard))
                       |> List.sort compare
                   | Error _ -> [ "<listing failed>" ])
             in
             let modeled =
               Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
             in
             if listed <> modeled then consistent := false;
             completed := true));
      Scenario.run t;
      !completed && !consistent)

let test_ten_megabit_installation () =
  (* The whole stack runs unchanged at 10 Mbit; remote operations get
     slightly faster (CPU-bound system). *)
  let build () =
    Scenario.build ~config:Vnet.Calibration.ethernet_10mbit ~workstations:1
      ~file_servers:2 ()
  in
  ignore
    (run_client ~build (fun _t _self env ->
         ok_exn "write" (Runtime.write_file env "[fs1]tmp/fast.txt" (Bytes.of_string "10mb"));
         let back = ok_exn "read" (Runtime.read_file env "[fs1]tmp/fast.txt") in
         Alcotest.(check string) "roundtrip at 10 Mbit" "10mb" (Bytes.to_string back)))

let test_walker_reports_dead_pointer () =
  (* A pointer whose target server died: the walk reports the failure
     through on_error and keeps going. *)
  let t = Scenario.build ~workstations:1 ~file_servers:2 () in
  let errors = ref [] and found = ref [] in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         ok_exn "mk" (Runtime.create env ~directory:true "[fs0]mixed");
         ok_exn "w" (Runtime.write_file env "[fs0]mixed/ok.txt" (Bytes.of_string "x"));
         let target =
           File_server.spec (Scenario.file_server t 1)
             ~context:Context.Well_known.default
         in
         ok_exn "link" (Runtime.link env "[fs0]mixed/dead" ~target);
         K.crash_host
           (Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 1)));
         Vruntime.Walker.walk env ~root:"[fs0]mixed"
           ~on_error:(fun name e -> errors := (name, e) :: !errors)
           (fun v -> found := v.Vruntime.Walker.v_name :: !found);
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "walk completed" true !completed;
  Alcotest.(check bool) "live file still visited" true
    (List.mem "[fs0]mixed/ok.txt" !found);
  Alcotest.(check bool) "dead pointer reported" true
    (List.exists (fun (name, _) -> name = "[fs0]mixed/dead") !errors)

let test_prefix_overhead_is_additive_constant () =
  (* The paper's central §6 observation: the cost a context prefix adds
     to an Open is the same whether the Open is served locally or
     remotely, because the prefix server is always local. *)
  let t =
    Scenario.build ~workstations:1 ~file_servers:1 ~local_file_server_on:0 ()
  in
  let local_fs = Option.get t.Scenario.local_fs in
  let remote_fs = Scenario.file_server t 0 in
  List.iter
    (fun fs ->
      let fsys = File_server.fs fs in
      match Fs.create_file fsys ~dir:Fs.root_ino ~owner:"t" "naming-test.mss1" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "setup")
    [ local_fs; remote_fs ];
  let results = Hashtbl.create 4 in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         let eng = Runtime.engine env in
         let measure key ~current name =
           Runtime.set_current_context env current;
           let t0 = Vsim.Engine.now eng in
           let i = ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read name) in
           Hashtbl.replace results key (Vsim.Engine.now eng -. t0);
           ok_exn "release" (Vio.Client.release self i)
         in
         let local_root =
           File_server.spec local_fs ~context:Context.Well_known.default
         in
         let remote_root =
           File_server.spec remote_fs ~context:Context.Well_known.default
         in
         measure "cc-local" ~current:local_root "naming-test.mss1";
         measure "cc-remote" ~current:remote_root "naming-test.mss1";
         measure "px-local" ~current:local_root "[localfs]naming-test.mss1";
         measure "px-remote" ~current:local_root "[fs0]naming-test.mss1"));
  Scenario.run t;
  let get k = Hashtbl.find results k in
  let diff_local = get "px-local" -. get "cc-local" in
  let diff_remote = get "px-remote" -. get "cc-remote" in
  Alcotest.(check bool)
    (Fmt.str "diffs agree (%.2f vs %.2f)" diff_local diff_remote)
    true
    (Float.abs (diff_local -. diff_remote) < 0.1);
  Alcotest.(check bool)
    (Fmt.str "overhead near the paper's 3.93-3.99 ms (%.2f)" diff_local)
    true
    (diff_local > 3.5 && diff_local < 4.4);
  Alcotest.(check bool) "remote costs more than local" true
    (get "cc-remote" > get "cc-local")

(* --- determinism of a full scenario --- *)

let test_scenario_determinism () =
  let run_once () =
    let t = Scenario.build () in
    ignore
      (Scenario.spawn_client t ~ws:0 (fun _self env ->
           ok_exn "w" (Runtime.write_file env "[home]d.txt" (Bytes.of_string "d"));
           ignore (ok_exn "r" (Runtime.read_file env "[home]d.txt"));
           ignore (ok_exn "l" (Runtime.list_directory env "[home]"))));
    Scenario.run t;
    (Vsim.Engine.executed t.Scenario.engine, Vsim.Engine.now t.Scenario.engine)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical replay" true (a = b)

let suite =
  [
    ( "system.files",
      [
        Alcotest.test_case "write/read via prefix" `Quick test_write_read_via_prefix;
        Alcotest.test_case "current context" `Quick test_write_read_current_context;
        Alcotest.test_case "same name, different contexts" `Quick
          test_same_name_different_contexts;
        Alcotest.test_case "missing file" `Quick test_open_missing_fails;
        Alcotest.test_case "unknown prefix" `Quick test_unknown_prefix_fails;
        Alcotest.test_case "deep paths" `Quick test_deep_paths;
      ] );
    ( "system.objects",
      [
        Alcotest.test_case "query and modify" `Quick test_query_and_modify;
        Alcotest.test_case "long names refused" `Quick
          test_long_strings_refused;
        Alcotest.test_case "long record refused" `Quick
          test_long_record_refused;
        Alcotest.test_case "flat record refused" `Quick
          test_flat_record_refused;
        Alcotest.test_case "long owner refused" `Quick test_long_owner_refused;
        Alcotest.test_case "remove atomicity" `Quick test_remove_is_atomic_with_name;
        Alcotest.test_case "rename" `Quick test_rename;
        Alcotest.test_case "list directory" `Quick test_list_directory;
        Alcotest.test_case "directory = queries (§5.6)" `Quick
          test_directory_matches_queries;
      ] );
    ( "system.contexts",
      [
        Alcotest.test_case "change context" `Quick test_change_context;
        Alcotest.test_case "current context name" `Quick test_current_context_name;
        Alcotest.test_case "map context via prefix" `Quick
          test_map_context_through_prefix;
        Alcotest.test_case "accounts context (§5.2)" `Quick test_accounts_context;
        Alcotest.test_case "owner's account kept" `Quick test_owner_account_kept;
      ] );
    ( "system.forest",
      [
        Alcotest.test_case "cross-server link forwards" `Quick
          test_cross_server_link_forwards;
        Alcotest.test_case "reply from target server" `Quick
          test_link_reply_comes_from_target_server;
        Alcotest.test_case "walker crosses servers" `Quick
          test_walker_crosses_servers;
        Alcotest.test_case "walker depth limit" `Quick test_walker_depth_limit;
        Alcotest.test_case "copy_tree across servers" `Quick
          test_copy_tree_across_servers;
      ] );
    ( "system.on-name",
      [
        Alcotest.test_case "remove a pointer" `Quick test_remove_pointer;
        Alcotest.test_case "remove a cached pointer" `Quick
          test_remove_pointer_cached;
        Alcotest.test_case "remove a bare prefix" `Quick
          (test_remove_bare_prefix ~cache:false);
        Alcotest.test_case "remove a cached bare prefix" `Quick
          (test_remove_bare_prefix ~cache:true);
        Alcotest.test_case "delete a pointer" `Quick test_delete_pointer;
        Alcotest.test_case "add a pointer twice" `Quick test_add_pointer_twice;
        Alcotest.test_case "rename a pointer" `Quick test_rename_pointer;
        Alcotest.test_case "query a pointer" `Quick test_query_pointer;
        Alcotest.test_case "rename, modify a directory" `Quick
          test_rename_modify_directory;
        Alcotest.test_case "well-known contexts kept" `Quick
          test_well_known_kept;
        Alcotest.test_case "no rename into subtree" `Quick
          test_no_rename_into_subtree;
      ] );
    ( "system.prefixes",
      [
        Alcotest.test_case "add/delete prefix" `Quick test_add_delete_prefix;
        Alcotest.test_case "prefix server directory" `Quick
          test_prefix_server_directory;
        Alcotest.test_case "footprint (E5)" `Quick test_prefix_server_footprint;
      ] );
    ( "system.failure",
      [
        Alcotest.test_case "logical binding survives restart" `Quick
          test_logical_binding_survives_restart;
        Alcotest.test_case "static binding does not" `Quick
          test_static_binding_does_not_recover;
        Alcotest.test_case "replicated context (§7)" `Quick
          test_replicated_context;
        Alcotest.test_case "durable restart" `Quick test_durable_restart;
        Alcotest.test_case "restart keeps the scope" `Quick
          test_restart_keeps_scope;
      ] );
    ( "system.cache",
      [
        Alcotest.test_case "cache staleness ablation" `Quick
          test_prefix_cache_hit_and_staleness;
      ] );
    ( "system.determinism",
      [ Alcotest.test_case "full scenario replay" `Quick test_scenario_determinism ] );
    ( "system.e4-invariant",
      [
        Alcotest.test_case "prefix overhead is an additive constant" `Quick
          test_prefix_overhead_is_additive_constant;
      ] );
    ( "system.transports",
      [
        Alcotest.test_case "10 Mbit installation" `Quick
          test_ten_megabit_installation;
        Alcotest.test_case "walker reports dead pointer" `Quick
          test_walker_reports_dead_pointer;
      ] );
    ( "system.prefix-model",
      [ QCheck_alcotest.to_alcotest prop_prefix_server_matches_model ] );
  ]
