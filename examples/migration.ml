(* Migrating a user between storage servers: copy the home tree with the
   recursive walker, then rebind the [home] prefix — every program keeps
   using the same names, which is the point of symbolic per-user
   bindings (§5.8). Includes the crash-durability story: a server
   restarted over its surviving disk keeps serving the same files under
   a new pid.

   Run with: dune exec examples/migration.exe *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Walker = Vruntime.Walker
module File_server = Vservices.File_server
open Vnaming

let ok = function
  | Ok v -> v
  | Error e -> failwith (Fmt.str "operation failed: %a" Vio.Verr.pp e)

let () =
  let t = Scenario.build ~workstations:1 ~file_servers:2 () in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"mover" (fun _self env ->
         (* A working home on fs0. *)
         let fs0_home =
           File_server.spec (Scenario.file_server t 0)
             ~context:Context.Well_known.home
         in
         ok (Runtime.delete_prefix env "home");
         ok (Runtime.add_prefix env "home" (`Static fs0_home));
         ok (Runtime.create env ~directory:true "[home]thesis");
         ok (Runtime.write_file env "[home]thesis/ch1.tex" (Bytes.of_string "Chapter 1"));
         ok (Runtime.write_file env "[home]thesis/ch2.tex" (Bytes.of_string "Chapter 2"));
         ok (Runtime.write_file env "[home]notes.txt" (Bytes.of_string "remember the demo"));
         Fmt.pr "before migration, [home] lives on fs0:@.";
         Walker.pp_tree env ~root:"[home]" Fmt.stdout ();

         (* Copy the tree to fs1 and swing the prefix. *)
         let copied = ok (Walker.copy_tree env ~src:"[home]" ~dst:"[fs1]users/system") in
         Fmt.pr "@.copied %d files to fs1@." copied;
         let fs1_home =
           File_server.spec (Scenario.file_server t 1)
             ~context:Context.Well_known.home
         in
         ok (Runtime.delete_prefix env "home");
         ok (Runtime.add_prefix env "home" (`Static fs1_home));
         Fmt.pr "@.[home] rebound to fs1; the same names keep working:@.";
         Fmt.pr "  [home]thesis/ch1.tex -> %S@."
           (Bytes.to_string (ok (Runtime.read_file env "[home]thesis/ch1.tex")));

         (* The old server can now crash; our names never notice. *)
         K.crash_host
           (Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0)));
         Fmt.pr "@.fs0 crashed; [home] is unaffected: %S@."
           (Bytes.to_string (ok (Runtime.read_file env "[home]notes.txt")));

         (* And fs0's disk survived: restart a fresh server over it. *)
         let fs0_host =
           Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0))
         in
         K.restart_host fs0_host;
         let fs0' = File_server.restart_from (Scenario.file_server t 0) fs0_host in
         ok (Runtime.delete_prefix env "fs0");
         ok
           (Runtime.add_prefix env "fs0"
              (`Static (File_server.spec fs0' ~context:Context.Well_known.default)));
         Fmt.pr "@.fs0 restarted over its surviving disk (new pid %a):@."
           Vkernel.Pid.pp (File_server.pid fs0');
         Fmt.pr "  [fs0]users/system/notes.txt -> %S@."
           (Bytes.to_string (ok (Runtime.read_file env "[fs0]users/system/notes.txt")))));
  Scenario.run t
