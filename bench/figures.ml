(* The paper's figures, regenerated as textual renderings.

   F1: the Send-Receive-Reply transaction timeline (Figure 1)
   F2: process identifier subfields (Figure 2)
   F3: a typed object description record (Figure 3)
   F4: the V naming forest with a cross-server pointer (Figure 4) *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module C = Vnet.Calibration
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Tables = Vworkload.Tables
open Vnaming

let f1 () =
  Tables.print_title "F1: the Send-Receive-Reply message transaction (Figure 1)";
  let rig = Rig.make_raw () in
  let hub = Vobs.Hub.create () in
  K.set_obs rig.domain hub;
  Vobs.Stream.set_timeline (Vobs.Hub.stream hub) true;
  let h1 = K.boot_host rig.domain ~name:"sender-ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"receiver-ws" 2 in
  let server =
    K.spawn h2 ~name:"receiver" (fun self ->
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender msg))
  in
  ignore
    (K.spawn h1 ~name:"sender" (fun self -> ignore (K.send self server "")));
  Vsim.Engine.run rig.eng;
  Fmt.pr "%a" Vobs.Stream.pp_timeline (Vobs.Hub.stream hub);
  Fmt.pr
    "@.the sender blocks from Send until the Reply arrives: one transaction,\n\
     two frames on the wire@."

let f2 () =
  Tables.print_title "F2: process identifier subfields (Figure 2)";
  let pid = Pid.make ~logical_host:291 ~local_pid:1044 in
  Fmt.pr "pid as 32-bit value : 0x%08x@." (Pid.to_int pid);
  Fmt.pr "logical host  (hi16): %d@." (Pid.logical_host pid);
  Fmt.pr "local process (lo16): %d@." (Pid.local_pid pid);
  Fmt.pr "printed             : %a@." Pid.pp pid;
  Fmt.pr
    "@.the logical-host field locates the process's kernel; each host\n\
     allocates local identifiers independently@."

let f3 () =
  Tables.print_title "F3: a typed object description record (Figure 3)";
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         Rig.ok "write"
           (Runtime.write_file env "[home]naming.mss" (Bytes.of_string "It is useful..."));
         let d = Rig.ok "query" (Runtime.query env "[home]naming.mss") in
         Fmt.pr "description of [home]naming.mss:@.";
         Fmt.pr "  type tag : %s (determines the record format)@."
           (Descriptor.obj_type_to_string d.Descriptor.obj_type);
         Fmt.pr "  name     : %s@." d.Descriptor.name;
         Fmt.pr "  size     : %d bytes@." d.Descriptor.size;
         Fmt.pr "  owner    : %s@." d.Descriptor.owner;
         Fmt.pr "  modified : %.2f ms@." d.Descriptor.modified;
         Fmt.pr "  writable : %b@." d.Descriptor.writable;
         let image = Descriptor.to_bytes d in
         Fmt.pr "  marshalled for a context-directory read: %d bytes@."
           (Bytes.length image)));
  Scenario.run t

let f4 () =
  Tables.print_title "F4: the V naming forest (Figure 4)";
  let t = Scenario.build ~workstations:1 ~file_servers:3 () in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         Rig.ok "w0"
           (Runtime.write_file env "[fs0]users/system/naming.mss" (Bytes.of_string "m"));
         Rig.ok "mk" (Runtime.create env ~directory:true "[fs1]projects");
         Rig.ok "w1"
           (Runtime.write_file env "[fs1]projects/kernel.c" (Bytes.of_string "c"));
         Rig.ok "w2" (Runtime.write_file env "[fs2]tmp/scratch" (Bytes.of_string "s"));
         let target = Rig.ok "resolve" (Runtime.resolve env "[fs1]projects") in
         Rig.ok "link" (Runtime.link env "[fs0]shared" ~target);
         ignore (Rig.ok "traverse" (Runtime.read_file env "[fs0]shared/kernel.c"))));
  Scenario.run t;
  let ws = Scenario.workstation t 0 in
  Fmt.pr "per-user context prefix server:@.";
  List.iter
    (fun (name, target) ->
      Fmt.pr "   [%s] -> %a@." name Prefix_server.pp_target target)
    (Prefix_server.bindings ws.Scenario.ws_prefix);
  Fmt.pr "@.";
  Array.iter
    (fun fs_server ->
      let fs = File_server.fs fs_server in
      let rec walk indent dir =
        List.iter
          (fun (name, entry) ->
            match entry with
            | Fs.Dir_entry ino ->
                Fmt.pr "%s%s/@." indent name;
                walk (indent ^ "   ") ino
            | Fs.File_entry _ -> Fmt.pr "%s%s@." indent name
            | Fs.Remote_link spec ->
                Fmt.pr "%s%s  ~~~> %a   (cross-server pointer)@." indent name
                  Context.pp_spec spec)
          (Fs.entries fs ~dir)
      in
      Fmt.pr "%s:@." (File_server.name fs_server);
      walk "   " Fs.root_ino;
      Fmt.pr "@.")
    t.Scenario.file_servers;
  Fmt.pr "forwards performed by fs0 (pointer traversals): %d@."
    (Vsim.Stats.Counter.value
       (File_server.stats (Scenario.file_server t 0)).Csnh.forwards)

let run () =
  f1 ();
  f2 ();
  f3 ();
  f4 ()
