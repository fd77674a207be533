(* E8 — the name-resolution cache (no paper figure; this repo's
   extension).

   The paper's E4 table shows a prefixed Open paying ~3.95 ms of prefix
   server processing plus one forward on every use. E8 measures what
   the client-side name-resolution cache (ISSUE 2) buys back, and what
   on-use consistency costs when a binding goes stale:

     Part 1  Open latency on the same deep remote name: cold miss
             (through the prefix server), warm hit (cached deep
             binding, one network transaction), and stale (failed
             cached attempt + eviction + fallback retry).

     Part 2  the four E4 configurations, uncached vs warm-cached: the
             cached '[prefix]' rows should collapse onto the matching
             current-context rows, since a warm hit sends the same
             single message a current-context Open sends.

     Part 3  hit ratio and mean operation latency across cache
             capacity x workload locality, over a generated file
             population (Generator's locality knob).

   Like every experiment, the cache is enabled only inside this file;
   with it off the routing path is byte-identical to the paper's. *)

module Scenario = Vworkload.Scenario
module Generator = Vworkload.Generator
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Tables = Vworkload.Tables
open Vnaming

(* 16 bytes, as in E4. *)
let file_name = "naming-test.mss1"
let deep_dirs = [ "proj"; "src" ]
let deep_file = "deep.mss"
let deep_path = String.concat "/" (deep_dirs @ [ deep_file ])

let fail_fs what = function
  | Ok v -> v
  | Error code -> failwith (Fmt.str "E8 %s: %a" what Reply.pp code)

let install_flat fs_server =
  let fs = File_server.fs fs_server in
  let ino =
    fail_fs "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"bench" file_name)
  in
  fail_fs "write" (Fs.write_file fs ~ino (Bytes.of_string "measured"))

(* Create proj/src/deep.mss on the server, returning nothing; callable
   repeatedly after [uninstall_deep] (fresh inodes each time, so stale
   cached contexts are detectably invalid). *)
let install_deep fs_server =
  let fs = File_server.fs fs_server in
  let dir =
    List.fold_left
      (fun dir name -> fail_fs "mkdir" (Fs.mkdir fs ~dir ~owner:"bench" name))
      Fs.root_ino deep_dirs
  in
  let ino = fail_fs "create" (Fs.create_file fs ~dir ~owner:"bench" deep_file) in
  fail_fs "write" (Fs.write_file fs ~ino (Bytes.of_string "deep"))

(* Remove the deep tree bottom-up (unlink requires empty directories). *)
let uninstall_deep fs_server =
  let fs = File_server.fs fs_server in
  let ino_of path =
    match Fs.resolve_path fs path with
    | Some (Fs.Dir_entry ino) | Some (Fs.File_entry ino) -> ino
    | _ -> failwith "E8: deep path vanished"
  in
  let parent = ino_of ("/" ^ String.concat "/" deep_dirs) in
  fail_fs "unlink file" (Fs.unlink fs ~dir:parent deep_file);
  let rec pop dirs =
    match List.rev dirs with
    | [] -> ()
    | leaf :: rev_front ->
        let front = List.rev rev_front in
        let dir =
          match front with [] -> Fs.root_ino | _ -> ino_of ("/" ^ String.concat "/" front)
        in
        fail_fs "unlink dir" (Fs.unlink fs ~dir leaf);
        pop front
  in
  pop deep_dirs

(* E4's measurement: mean raw Open latency less the server's own mean
   per-request specific time. *)
let open_ms env name ~server ~repeats =
  let m = Rig.open_ms ~server env name ~repeats in
  m.Rig.raw -. m.Rig.specific

(* --- Parts 1 and 2: the E4 rig with a deep path added --- *)

let run_latency () =
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_3mbit ~workstations:1
      ~file_servers:1 ~local_file_server_on:0 ()
  in
  let remote_fs = Scenario.file_server t 0 in
  let local_fs = Option.get t.Scenario.local_fs in
  install_flat remote_fs;
  install_flat local_fs;
  install_deep remote_fs;
  let results : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let stale_increments = ref (-1) in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"e8-opener" (fun _self env ->
         let remember key ms = Hashtbl.replace results key ms in
         let remote_root =
           File_server.spec remote_fs ~context:Context.Well_known.default
         in
         let local_root =
           File_server.spec local_fs ~context:Context.Well_known.default
         in
         Runtime.set_current_context env remote_root;

         (* Part 1: miss / hit / stale on the deep remote name. *)
         let deep_name = "[fs0]" ^ deep_path in
         remember "cc-deep"
           (open_ms env deep_path ~server:remote_fs ~repeats:8);
         Runtime.enable_name_cache env ~capacity:64 true;
         remember "miss" (open_ms env deep_name ~server:remote_fs ~repeats:1);
         remember "hit" (open_ms env deep_name ~server:remote_fs ~repeats:8);
         let stale0 = (Runtime.name_cache_stats env).Name_cache.stale in
         (* Re-home the bound context: recreate the same path with fresh
            inodes, so the cached (server, context) binding is
            detectably invalid on next use. *)
         uninstall_deep remote_fs;
         install_deep remote_fs;
         remember "stale" (open_ms env deep_name ~server:remote_fs ~repeats:1);
         stale_increments :=
           (Runtime.name_cache_stats env).Name_cache.stale - stale0;

         (* Part 2: the four E4 configurations, uncached vs warm. *)
         let configs =
           [
             ("cc-local", local_root, file_name, local_fs);
             ("cc-remote", remote_root, file_name, remote_fs);
             ("px-local", local_root, "[localfs]" ^ file_name, local_fs);
             ("px-remote", local_root, "[fs0]" ^ file_name, remote_fs);
           ]
         in
         List.iter
           (fun (key, current, name, server) ->
             Runtime.set_current_context env current;
             Runtime.enable_name_cache env false;
             remember (key ^ "-uncached") (open_ms env name ~server ~repeats:8);
             Runtime.enable_name_cache env ~capacity:64 true;
             ignore (open_ms env name ~server ~repeats:1) (* warm up *);
             remember (key ^ "-cached") (open_ms env name ~server ~repeats:8))
           configs));
  Scenario.run t;
  ((fun key -> Hashtbl.find results key), !stale_increments)

(* --- Part 3: hit ratio over capacity x locality --- *)

let run_hit_ratio () =
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_3mbit ~workstations:1
      ~file_servers:1 ()
  in
  let fs0 = Scenario.file_server t 0 in
  let paths =
    Generator.populate
      (Vsim.Prng.create ~seed:108)
      fs0 ~directories:12 ~files_per_directory:2
    |> List.map (fun p -> "[fs0]" ^ Generator.relative p)
  in
  let grid = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"e8-workload" (fun _self env ->
         let eng = Runtime.engine env in
         List.iter
           (fun capacity ->
             List.iter
               (fun locality ->
                 (* A fresh stream per cell from a fixed seed: every
                    cell replays the same draws, so only capacity and
                    locality vary. *)
                 let ops =
                   Generator.operation_stream ~locality
                     (Vsim.Prng.create ~seed:109)
                     paths ~n:150 ~delete_fraction:0.0
                 in
                 (* enable_name_cache with a capacity installs a fresh
                    cache: counters start at zero for this cell. *)
                 Runtime.enable_name_cache env ~capacity true;
                 let t0 = Vsim.Engine.now eng in
                 List.iter
                   (fun op ->
                     match op with
                     | Generator.Open_read name ->
                         let i =
                           Rig.ok "E8 workload open"
                             (Runtime.open_ env ~mode:Vmsg.Read name)
                         in
                         Rig.ok "E8 workload release"
                           (Vio.Client.release (Runtime.self env) i)
                     | Generator.Query name ->
                         ignore (Rig.ok "E8 workload query" (Runtime.query env name))
                     | Generator.Delete _ -> ())
                   ops;
                 let elapsed = Vsim.Engine.now eng -. t0 in
                 let stats = Runtime.name_cache_stats env in
                 let looked = stats.Name_cache.hits + stats.Name_cache.misses in
                 let ratio =
                   if looked = 0 then 0.0
                   else float_of_int stats.Name_cache.hits /. float_of_int looked
                 in
                 grid :=
                   ( capacity,
                     locality,
                     ratio,
                     elapsed /. float_of_int (List.length ops),
                     stats.Name_cache.evictions )
                   :: !grid)
               [ 0.0; 0.5; 0.9 ])
           [ 4; 16; 64 ]));
  Scenario.run t;
  List.rev !grid

let run () =
  Tables.print_title "E8: name-resolution cache — hit/miss/stale latency and hit ratio";
  Tables.note_meta ~seed:42 ();
  let get, stale_increments = run_latency () in

  Tables.print_section "Open latency on a deep remote name ([fs0]proj/src/deep.mss, 3 Mbit)";
  Tables.print_table
    ~header:[ "cache state"; "Open (ms)"; "network transactions" ]
    [
      [ "cold miss (via prefix server)"; Tables.ms (get "miss"); "2 (prefix + fs)" ];
      [ "warm hit (cached deep binding)"; Tables.ms (get "hit"); "1 (fs direct)" ];
      [
        "stale (evict, fall back, retry)";
        Tables.ms (get "stale");
        "3 (fs fail + prefix + fs)";
      ];
    ];
  Fmt.pr
    "@.the stale Open still succeeded: on-use consistency evicted the binding,\n\
     fell back to the prefix server and retried (%d stale eviction%s)@."
    stale_increments
    (if stale_increments = 1 then "" else "s");

  Tables.print_section "The E4 table, uncached vs warm-cached";
  Tables.print_table
    ~header:[ "configuration"; "uncached (ms)"; "warm-cached (ms)"; "speedup" ]
    (List.map
       (fun (label, key) ->
         let u = get (key ^ "-uncached") and c = get (key ^ "-cached") in
         [ label; Tables.ms u; Tables.ms c; Fmt.str "%.2fx" (u /. c) ])
       [
         ("current context, local", "cc-local");
         ("current context, remote", "cc-remote");
         ("context prefix, local", "px-local");
         ("context prefix, remote", "px-remote");
       ]);
  (* The acceptance check of ISSUE 2: a warm-cache remote prefixed Open
     sends the same single message a current-context Open sends, so it
     must land within 1.15x of E4's current-context row. *)
  let ratio = get "px-remote-cached" /. get "cc-remote-uncached" in
  Tables.record
    (Vobs.Json.Obj
       [
         ("warm_px_remote_over_cc_remote", Vobs.Json.Float ratio);
         ("stale_evictions", Vobs.Json.Int stale_increments);
       ]);
  Fmt.pr
    "@.warm-cached \"[fs0]\" Open / current-context remote Open = %.2fx %s@."
    ratio
    (if ratio <= 1.15 then "(within the 1.15x bound)" else "(EXCEEDS 1.15x!)");

  Tables.print_section "Hit ratio and mean latency vs cache capacity and locality";
  let grid = run_hit_ratio () in
  Tables.print_table
    ~header:
      [ "capacity"; "locality"; "hit ratio"; "mean op (ms)"; "evictions" ]
    (List.map
       (fun (capacity, locality, ratio, mean_ms, evictions) ->
         [
           string_of_int capacity;
           Fmt.str "%.1f" locality;
           Fmt.str "%.2f" ratio;
           Tables.ms mean_ms;
           string_of_int evictions;
         ])
       grid);
  Fmt.pr
    "@.deep bindings are learned from reply stamps, so even the\n\
     locality-0 workload hits once directories repeat; a small cache\n\
     under low locality churns (evictions) and gives the ratio back@."
