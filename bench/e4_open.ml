(* E4 — the paper's Open-latency table (§6).

   Paper figures (ms), excluding server-specific actions on Open:

       current context, server local     1.21
       current context, server remote    3.70
       context prefix,  server local     5.14
       context prefix,  server remote    7.69

   and the observation that the two differences (5.14-1.21=3.93,
   7.69-3.70=3.99) agree: the prefix cost is the context prefix server's
   processing, always local, independent of where the Open lands.

   Setup mirrors the paper: the workstation runs its own (local) file
   server process alongside the remote one; the same 16-byte file name
   exists on both. Server-specific time (directory lookup + instance
   creation) is measured by the server itself and subtracted, matching
   the paper's methodology. *)

module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Tables = Vworkload.Tables
open Vnaming

(* 16 bytes, matching the name-size assumption of the calibration. *)
let file_name = "naming-test.mss1"

let install_file fs_server =
  let fs = File_server.fs fs_server in
  match Fs.create_file fs ~dir:Fs.root_ino ~owner:"bench" file_name with
  | Ok ino -> (
      match Fs.write_file fs ~ino (Bytes.of_string "measured") with
      | Ok () -> ()
      | Error _ -> failwith "E4 write")
  | Error _ -> failwith "E4 create"

let measure_all ~config =
  let t =
    Scenario.build ~config ~workstations:1 ~file_servers:1
      ~local_file_server_on:0 ()
  in
  let remote_fs = Scenario.file_server t 0 in
  let local_fs = Option.get t.Scenario.local_fs in
  install_file remote_fs;
  install_file local_fs;
  let results = Hashtbl.create 4 in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"opener" (fun _self env ->
         let measure key ~current ~name ~server =
           Runtime.set_current_context env current;
           Hashtbl.replace results key (Rig.open_ms ~server env name ~repeats:8)
         in
         let local_root =
           File_server.spec local_fs ~context:Context.Well_known.default
         in
         let remote_root =
           File_server.spec remote_fs ~context:Context.Well_known.default
         in
         measure "cc-local" ~current:local_root ~name:file_name ~server:local_fs;
         measure "cc-remote" ~current:remote_root ~name:file_name ~server:remote_fs;
         measure "px-local" ~current:local_root ~name:("[localfs]" ^ file_name)
           ~server:local_fs;
         measure "px-remote" ~current:local_root ~name:("[fs0]" ^ file_name)
           ~server:remote_fs));
  Scenario.run t;
  results

let run () =
  Tables.print_title "E4: Open latency by context and server location (paper §6)";
  Tables.note_meta ~seed:42 ();
  let results = measure_all ~config:Vnet.Calibration.ethernet_3mbit in
  let get key = Hashtbl.find results key in
  let headline key = (get key).Rig.raw -. (get key).Rig.specific in
  Tables.print_comparison
    [
      {
        Tables.label = "current context, server local";
        paper = Some 1.21;
        measured = headline "cc-local";
        unit_ = "ms";
      };
      {
        label = "current context, server remote";
        paper = Some 3.70;
        measured = headline "cc-remote";
        unit_ = "ms";
      };
      {
        label = "context prefix, server local";
        paper = Some 5.14;
        measured = headline "px-local";
        unit_ = "ms";
      };
      {
        label = "context prefix, server remote";
        paper = Some 7.69;
        measured = headline "px-remote";
        unit_ = "ms";
      };
    ];
  Fmt.pr "@.prefix overhead (the context prefix server's processing):@.";
  Tables.print_comparison
    [
      {
        Tables.label = "added cost, server local";
        paper = Some 3.93;
        measured = headline "px-local" -. headline "cc-local";
        unit_ = "ms";
      };
      {
        label = "added cost, server remote";
        paper = Some 3.99;
        measured = headline "px-remote" -. headline "cc-remote";
        unit_ = "ms";
      };
    ];
  Fmt.pr
    "@.as in the paper, the two differences agree: the prefix server is always\n\
     local, so its cost is independent of where the Open is served@.";
  Fmt.pr "@.(raw latencies before subtracting server-specific time: ";
  List.iter
    (fun key -> Fmt.pr "%s=%.2f " key (get key).Rig.raw)
    [ "cc-local"; "cc-remote"; "px-local"; "px-remote" ];
  Fmt.pr ")@.";
  (* Model predictions at 10 Mbit: only the wire term shrinks, so the
     remote rows improve slightly and the prefix constant is unchanged. *)
  let results10 = measure_all ~config:Vnet.Calibration.ethernet_10mbit in
  let h10 key =
    let m = Hashtbl.find results10 key in
    m.Rig.raw -. m.Rig.specific
  in
  Fmt.pr "@.predicted at 10 Mbit Ethernet (no paper figures):@.";
  Tables.print_table
    ~header:[ "configuration"; "3 Mbit (ms)"; "10 Mbit (ms)" ]
    (List.map
       (fun (label, key) ->
         [ label; Fmt.str "%.2f" (headline key); Fmt.str "%.2f" (h10 key) ])
       [
         ("current context, local", "cc-local");
         ("current context, remote", "cc-remote");
         ("context prefix, local", "px-local");
         ("context prefix, remote", "px-remote");
       ])
