(* E6 — distributed interpretation vs a centralized name server (§2.2).

   The paper argues this comparison qualitatively; the harness measures
   it: transactions and latency per open, the consistency window on
   delete, availability under a name-server crash, and the client-side
   caching ablation the paper dismisses. *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Name_server = Vbaseline.Name_server
module Generator = Vworkload.Generator
module Tables = Vworkload.Tables
open Vnaming

let ns_addr = 210

let build () =
  let t = Scenario.build ~workstations:1 ~file_servers:2 () in
  let ns_host = K.boot_host t.Scenario.domain ~name:"ns" ns_addr in
  let ns = Name_server.start ns_host in
  let prng = Vsim.Prng.create ~seed:7 in
  let paths =
    Generator.populate prng (Scenario.file_server t 0) ~directories:15
      ~files_per_directory:3
  in
  (* Mirror every file into the centralized name service. *)
  let fs0 = Scenario.file_server t 0 in
  List.iter
    (fun path ->
      match File_server.low_id_of_path fs0 path with
      | Some low_id ->
          Name_server.preload ns (Generator.relative path)
            { Name_server.object_server = File_server.pid fs0; low_id }
      | None -> ())
    paths;
  (t, ns, List.map Generator.relative paths)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let run () =
  Tables.print_title
    "E6: distributed interpretation vs centralized name server (paper §2.2)";
  let t, ns, paths = build () in
  let sample = List.filteri (fun i _ -> i < 30) paths in
  let dist_lat = ref [] and cent_lat = ref [] in
  let dist_txn = ref 0 and cent_txn = ref 0 in
  let stale_lookups = ref 0 in
  let avail_dist = ref 0 and avail_cent = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"comparator" (fun self env ->
         let eng = Runtime.engine env in
         let timed acc f =
           let t0 = Vsim.Engine.now eng in
           f ();
           acc := (Vsim.Engine.now eng -. t0) :: !acc
         in
         let txns () = K.ipc_transaction_count t.Scenario.domain in
         (* --- efficiency: latency and transactions per open --- *)
         let t0 = txns () in
         List.iter
           (fun path ->
             timed dist_lat (fun () ->
                 let i = Rig.ok "open" (Runtime.open_ env ~mode:Vmsg.Read path) in
                 Rig.ok "release" (Vio.Client.release self i)))
           sample;
         let t1 = txns () in
         List.iter
           (fun path ->
             timed cent_lat (fun () ->
                 let i =
                   Rig.ok "ns open"
                     (Name_server.open_via_ns self ~ns:(Name_server.pid ns)
                        ~name:path ~mode:Vmsg.Read)
                 in
                 Rig.ok "release" (Vio.Client.release self i)))
           sample;
         let t2 = txns () in
         dist_txn := t1 - t0;
         cent_txn := t2 - t1;

         (* --- consistency: interrupted deletes leave stale names --- *)
         let victims = List.filteri (fun i _ -> i >= 30 && i < 40) paths in
         List.iter
           (fun path ->
             match
               Name_server.delete_via_ns self ~ns:(Name_server.pid ns) ~name:path
                 ~object_env:env ~object_name:path ~crash_between:true ()
             with
             | Ok `Interrupted_stale_name_left -> ()
             | _ -> failwith "E6 delete")
           victims;
         List.iter
           (fun path ->
             (* Centralized: the name still resolves (stale). The
                distributed name died with the object. *)
             (match Name_server.lookup self ~ns:(Name_server.pid ns) ~name:path with
             | Ok _ -> incr stale_lookups
             | Error _ -> ());
             match Runtime.query env path with
             | Error (Vio.Verr.Denied Reply.Not_found) -> ()
             | _ -> failwith "distributed name survived its object")
           victims;

         (* --- availability: name server down --- *)
         K.crash_host (Option.get (K.host_of_addr t.Scenario.domain ns_addr));
         List.iter
           (fun path ->
             (match Runtime.query env path with
             | Ok _ -> incr avail_dist
             | Error _ -> ());
             match
               Name_server.open_via_ns self ~ns:(Name_server.pid ns) ~name:path
                 ~mode:Vmsg.Read
             with
             | Ok i ->
                 incr avail_cent;
                 ignore (Vio.Client.release self i)
             | Error _ -> ())
           (List.filteri (fun i _ -> i < 10) paths)));
  Scenario.run t;
  let n = List.length sample in
  Tables.print_section "efficiency (30 opens of existing files)";
  Tables.print_table
    ~header:[ "model"; "mean open (ms)"; "transactions/open" ]
    [
      [
        "distributed (V)";
        Fmt.str "%.2f" (mean !dist_lat);
        Fmt.str "%.2f" (float_of_int !dist_txn /. float_of_int n);
      ];
      [
        "centralized NS";
        Fmt.str "%.2f" (mean !cent_lat);
        Fmt.str "%.2f" (float_of_int !cent_txn /. float_of_int n);
      ];
    ];
  Tables.print_section "consistency (10 interrupted deletes)";
  Tables.print_table
    ~header:[ "model"; "stale names left" ]
    [
      [ "distributed (V)"; "0 (name dies with the object)" ];
      [ "centralized NS"; Fmt.str "%d of 10" !stale_lookups ];
    ];
  Tables.print_section "availability (name server crashed, object servers up)";
  Tables.print_table
    ~header:[ "model"; "opens succeeding" ]
    [
      [ "distributed (V)"; Fmt.str "%d of 10" !avail_dist ];
      [ "centralized NS"; Fmt.str "%d of 10" !avail_cent ];
    ];
  (* --- the client-cache ablation (§2.2 dismisses client caching) --- *)
  Tables.print_section "client-side prefix cache ablation";
  let t2 = Scenario.build ~workstations:1 ~file_servers:2 () in
  let hits = ref 0 and wrong = ref 0 and reads = ref 0 in
  ignore
    (Scenario.spawn_client t2 ~ws:0 ~name:"cacher" (fun _self env ->
         Rig.ok "seed0"
           (Runtime.write_file env "[fs0]tmp/cache.txt" (Bytes.of_string "fs0"));
         Rig.ok "seed1"
           (Runtime.write_file env "[fs1]tmp/cache.txt" (Bytes.of_string "fs1"));
         let fs0_root =
           File_server.spec (Scenario.file_server t2 0)
             ~context:Context.Well_known.default
         in
         let fs1_root =
           File_server.spec (Scenario.file_server t2 1)
             ~context:Context.Well_known.default
         in
         Runtime.enable_name_cache env true;
         Rig.ok "bind" (Runtime.add_prefix env "data" (`Static fs0_root));
         ignore (Rig.ok "resolve" (Runtime.resolve env "[data]"));
         (* The binding changes behind the cache's back. *)
         Rig.ok "unbind" (Runtime.delete_prefix env "data");
         Rig.ok "rebind" (Runtime.add_prefix env "data" (`Static fs1_root));
         for _ = 1 to 10 do
           incr reads;
           let data = Rig.ok "read" (Runtime.read_file env "[data]tmp/cache.txt") in
           if Bytes.to_string data <> "fs1" then incr wrong
         done;
         hits := (Runtime.name_cache_stats env).Name_cache.hits));
  Scenario.run t2;
  Tables.print_table
    ~header:[ "metric"; "value" ]
    [
      [ "cache hits"; string_of_int !hits ];
      [ "reads answered by the WRONG server"; Fmt.str "%d of %d" !wrong !reads ];
    ];
  Fmt.pr
    "@.caching names at the client saves the prefix hop but silently serves\n\
     stale bindings — the inconsistency the paper cites for not doing it@."
