(* E11 — hierarchical federated name domains with a caching resolver
   (no paper figure; this repo's extension of §5.4's one-level
   delegation to a multi-level federated tree).

   A chain of domain servers, each owning a context subtree and
   delegating one named sub-context to the next, ends in a leaf binding
   that crosses the domain/object boundary into a file server. Clients
   can resolve through the tree two ways: recursively (the paper's
   request forwarding, one Forward per level, transparent to the
   client) or iteratively (the per-host [Vdomains.Resolver] role
   following referrals root-to-leaf with a TTL cache, negative caching,
   and stale-serving).

     Part 1  resolution latency vs tree depth 1..10: cold iterative
             walk, warm resolver-routed Open (cached terminal binding,
             one direct transaction), recursive forwarded Open, and the
             flat "[fs0]" prefix-server Open for scale. Acceptance: the
             warm deep-tree Open lands within 1.2x of the flat one.

     Part 2  Zipf-skewed name popularity vs resolver cache hit ratio
             (64 sibling domain bindings, capacity 16), and negative
             caching: repeated misses of the same absent name collapse
             to one authoritative query per negative TTL.

     Part 3  hot-domain crash: the mid server of a depth-3 chain
             crashes and restarts under a fault plan. A persistent
             stale-window resolver keeps serving (expired entries
             tagged stale) while a cold re-resolver fails until the
             heal; afterwards the tree-convergence invariant must hold
             from every workstation with zero violations.

   Everything is a pure function of the seeds: two runs record
   byte-identical JSON. *)

module Scenario = Vworkload.Scenario
module Generator = Vworkload.Generator
module Tables = Vworkload.Tables
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Kernel = Vkernel.Kernel
module Domain_server = Vdomains.Domain_server
module Resolver = Vdomains.Resolver
module Plan = Vfault.Plan
module Injector = Vfault.Injector
module Invariant = Vfault.Invariant
module Json = Vobs.Json
open Vnaming

let seed = 1100
let prefix = "dom"
let file_name = "paper.dat"

let fail_fs what = function
  | Ok v -> v
  | Error code -> failwith (Fmt.str "E11 %s: %a" what Reply.pp code)

let install_file fs_server =
  let fs = File_server.fs fs_server in
  let ino =
    fail_fs "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"bench" file_name)
  in
  fail_fs "write" (Fs.write_file fs ~ino (Bytes.of_string "measured"))

(* The name that walks the whole chain and lands on the file. *)
let chain_name ~depth =
  "[" ^ prefix ^ "]"
  ^ String.concat "/"
      (List.init (depth - 1) (fun i -> Fmt.str "d%d" (i + 1))
      @ [ "leaf"; file_name ])

let open_mean env name ~repeats = (Rig.open_ms env name ~repeats).Rig.raw

(* --- Part 1: resolution latency vs tree depth --- *)

type depth_row = {
  depth : int;
  cold_resolution_ms : float;  (** fresh iterative walk, [depth] queries *)
  warm_open_ms : float;  (** resolver-routed Open on a warm cache *)
  recursive_open_ms : float;  (** forwarded down the tree, no resolver *)
  flat_open_ms : float;  (** the standard "[fs0]" prefix-server Open *)
}

let run_depth depth =
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_3mbit ~workstations:1
      ~file_servers:1 ~seed ()
  in
  let fs0 = Scenario.file_server t 0 in
  install_file fs0;
  let chain = Scenario.domain_chain t ~depth in
  let root_spec = Domain_server.spec chain.(0) () in
  let name = chain_name ~depth in
  let row = ref None in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"e11-depth" (fun self env ->
         let eng = Runtime.engine env in
         (* Recursive baseline: bind "[dom]" on the workstation's prefix
            server; the request forwards down the tree, one hop per
            level, exactly the paper's §5.4 protocol. *)
         Rig.ok "E11 add prefix"
           (Runtime.add_prefix env prefix (`Static root_spec));
         let recursive_open_ms = open_mean env name ~repeats:8 in
         let flat_open_ms =
           open_mean env ("[fs0]" ^ file_name) ~repeats:8
         in
         (* Cold iterative resolution: a fresh resolver per repeat, so
            every walk starts at the root and pays one marked
            MapContext per level. *)
         let repeats = 5 in
         let cold_total = ref 0.0 in
         for _ = 1 to repeats do
           let r = Resolver.create ~prefix ~root:root_spec () in
           let t0 = Vsim.Engine.now eng in
           ignore (Rig.ok "E11 cold resolve" (Resolver.resolve r self name));
           cold_total := !cold_total +. (Vsim.Engine.now eng -. t0)
         done;
         let cold_resolution_ms = !cold_total /. float_of_int repeats in
         (* Warm resolver-routed Opens: the cached terminal binding
            sends one direct transaction to the file server. *)
         let r = Resolver.create ~prefix ~root:root_spec ~ttl_ms:600_000.0 () in
         Runtime.set_resolver env r;
         ignore (open_mean env name ~repeats:1) (* warm up *);
         let warm_open_ms = open_mean env name ~repeats:8 in
         row :=
           Some
             {
               depth;
               cold_resolution_ms;
               warm_open_ms;
               recursive_open_ms;
               flat_open_ms;
             }));
  Scenario.run t;
  match !row with
  | Some r -> r
  | None -> failwith "E11: depth client did not finish"

(* --- Part 2: Zipf popularity and negative caching --- *)

let siblings = 64
let zipf_cache_capacity = 16
let zipf_draws = 400

type zipf_row = {
  exponent : float;
  hit_ratio : float;
  z_walks : int;
  z_queries : int;
  z_evictions : int;
}

type negative_result = {
  repeated_misses : int;  (** resolutions of the same absent name *)
  authoritative_queries : int;  (** reaching the root server *)
  negative_answers : int;  (** collapsed onto the cached negative *)
}

let run_popularity () =
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_3mbit ~workstations:1
      ~file_servers:1 ~seed ()
  in
  let fs0 = Scenario.file_server t 0 in
  install_file fs0;
  let target = File_server.spec fs0 ~context:Context.Well_known.default in
  let host =
    Kernel.boot_host Scenario.(t.domain) ~name:"dom0" (Scenario.dom_addr 0)
  in
  let root = Domain_server.start host ~name:"dom0" () in
  (* 64 sibling bindings under the root: each name gets its own
     terminal cache entry, so popularity skew meets cache capacity. *)
  for k = 0 to siblings - 1 do
    fail_fs "bind" (Domain_server.bind root (Fmt.str "f%d" k) target)
  done;
  let root_spec = Domain_server.spec root () in
  let names =
    Array.init siblings (fun k ->
        Fmt.str "[%s]f%d/%s" prefix k file_name)
  in
  let rows = ref [] and negative = ref None in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"e11-zipf" (fun self env ->
         let eng = Runtime.engine env in
         List.iteri
           (fun i s ->
             (* A long TTL isolates the effect: every miss is capacity
                churn, never expiry. A fixed per-cell seed replays the
                identical draw sequence. *)
             let r =
               Resolver.create ~capacity:zipf_cache_capacity
                 ~ttl_ms:600_000.0 ~prefix ~root:root_spec ()
             in
             let prng = Vsim.Prng.create ~seed:(seed + 200 + i) in
             let cum =
               if s > 0.0 then Some (Generator.zipf_cumulative ~s siblings)
               else None
             in
             for _ = 1 to zipf_draws do
               let k =
                 match cum with
                 | Some c -> Generator.zipf_pick prng c
                 | None -> Vsim.Prng.int prng siblings
               in
               ignore
                 (Rig.ok "E11 zipf resolve" (Resolver.resolve r self names.(k)))
             done;
             let st = Resolver.stats r in
             let cs = Resolver.cache_stats r in
             rows :=
               {
                 exponent = s;
                 hit_ratio =
                   float_of_int st.Resolver.cache_answers
                   /. float_of_int st.Resolver.walks;
                 z_walks = st.Resolver.walks;
                 z_queries = st.Resolver.queries;
                 z_evictions = cs.Name_cache.evictions;
               }
               :: !rows)
           [ 0.0; 0.8; 1.2 ];
         (* Negative caching: the same absent name over and over. Ten
            misses inside the negative TTL cost one authoritative
            query; crossing the TTL boundary costs exactly one more. *)
         let r = Resolver.create ~prefix ~root:root_spec () in
         let missing = Fmt.str "[%s]missing/%s" prefix file_name in
         let resolve_miss () =
           match Resolver.resolve r self missing with
           | Error (Vio.Verr.Denied Reply.Not_found) -> ()
           | Ok (_ : Resolver.outcome) ->
               failwith "E11: absent name resolved"
           | Error e -> Rig.fail_verr "E11 negative resolve" e
         in
         for _ = 1 to 10 do resolve_miss () done;
         Vsim.Proc.delay eng (Resolver.default_neg_ttl_ms +. 500.0);
         for _ = 1 to 10 do resolve_miss () done;
         let st = Resolver.stats r in
         negative :=
           Some
             {
               repeated_misses = st.Resolver.walks;
               authoritative_queries = st.Resolver.queries;
               negative_answers = st.Resolver.neg_answers;
             }));
  Scenario.run t;
  (List.rev !rows, Option.get !negative)

(* --- Part 3: hot-domain crash, stale-serving vs cold re-resolution --- *)

let crash_at = 5_000.0
let downtime_ms = 7_000.0
let crash_horizon_ms = 20_000.0
let probe_period_ms = 1_000.0

type probe_tally = {
  mutable successes : int;
  mutable failures : int;
  mutable stale : int;  (** successes served from an expired entry *)
  mutable total_ms : float;
}

let run_crash () =
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_3mbit ~workstations:2
      ~file_servers:1 ~seed ()
  in
  let fs0 = Scenario.file_server t 0 in
  install_file fs0;
  let chain = Scenario.domain_chain t ~depth:3 in
  let root_spec = Domain_server.spec chain.(0) () in
  let name = chain_name ~depth:3 in
  (* The fault plan: the mid-tree domain server (the hot domain every
     walk crosses) crashes and comes back. *)
  let plan =
    Plan.of_events ~seed
      (Plan.crash_restart ~addr:(Scenario.dom_addr 1) ~at:crash_at ~downtime_ms)
  in
  (* The revive hook: reboot the domain server over its surviving
     delegation tables (configuration is durable like a disk), then
     re-stitch the parent's delegation record to the new incarnation —
     the tree analogue of logical-binding re-resolution. *)
  let revive addr =
    if addr = Scenario.dom_addr 1 then
      match Kernel.host_of_addr Scenario.(t.domain) addr with
      | Some host ->
          chain.(1) <- Domain_server.restart_from chain.(1) host;
          fail_fs "re-stitch"
            (Domain_server.delegate chain.(0) "d1"
               (Domain_server.spec chain.(1) ()))
      | None -> ()
  in
  let inj = Injector.install ~on_restart:revive t plan in
  (* [fresh] makes a new resolver per probe slot (cold re-resolution);
     otherwise one resolver persists across slots and its cache ages. *)
  let probe ~ws ~client_name ~fresh ~make_resolver =
    let tally = { successes = 0; failures = 0; stale = 0; total_ms = 0.0 } in
    ignore
      (Scenario.spawn_client t ~ws ~name:client_name (fun self env ->
           let eng = Runtime.engine env in
           let slots = int_of_float (crash_horizon_ms /. probe_period_ms) in
           let persistent = if fresh then None else Some (make_resolver ()) in
           for i = 0 to slots - 1 do
             let target = float_of_int i *. probe_period_ms in
             let now = Vsim.Engine.now eng in
             if now < target then Vsim.Proc.delay eng (target -. now);
             let r =
               match persistent with Some r -> r | None -> make_resolver ()
             in
             let t0 = Vsim.Engine.now eng in
             (match Resolver.resolve r self name with
             | Ok o ->
                 tally.successes <- tally.successes + 1;
                 if o.Resolver.served_stale then tally.stale <- tally.stale + 1
             | Error (_ : Vio.Verr.t) -> tally.failures <- tally.failures + 1);
             tally.total_ms <- tally.total_ms +. (Vsim.Engine.now eng -. t0)
           done));
    tally
  in
  (* ws0: one persistent resolver with a short TTL and a wide stale
     window — downtime is served from expired entries. ws1: a cold
     resolver per probe — every resolution walks from the root and
     fails while the mid domain is down. *)
  let stale_resolver =
    Resolver.create ~ttl_ms:2_000.0 ~stale_window_ms:30_000.0 ~prefix
      ~root:root_spec ()
  in
  let stale_tally =
    probe ~ws:0 ~client_name:"e11-stale" ~fresh:false
      ~make_resolver:(fun () -> stale_resolver)
  in
  let cold_tally =
    probe ~ws:1 ~client_name:"e11-cold" ~fresh:true ~make_resolver:(fun () ->
        Resolver.create ~prefix ~root:root_spec ())
  in
  Scenario.run t;
  (* Post-heal: the tree-convergence invariant from every workstation —
     cold resolvers, no stale answers, identical (server, context)
     everywhere. An un-restitched delegation to the dead incarnation
     would surface right here. *)
  let violations =
    Invariant.tree_convergence t ~root:root_spec ~prefix ~names:[ name ]
  in
  (inj, stale_tally, Resolver.stats stale_resolver, cold_tally, violations)

(* --- the report --- *)

let run () =
  Tables.print_title
    "E11: federated name domains — iterative resolution, caching resolver, \
     stale-serving";
  Tables.note_meta ~seed ~horizon_ms:crash_horizon_ms ();

  Tables.print_section
    "Resolution latency vs tree depth (3 Mbit; cold walk = one marked \
     MapContext per level)";
  let depths = [ 1; 2; 3; 5; 7; 10 ] in
  let rows = List.map run_depth depths in
  Tables.print_table
    ~header:
      [
        "depth";
        "cold walk (ms)";
        "warm Open (ms)";
        "recursive Open (ms)";
        "flat Open (ms)";
        "warm/flat";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.depth;
           Tables.ms r.cold_resolution_ms;
           Tables.ms r.warm_open_ms;
           Tables.ms r.recursive_open_ms;
           Tables.ms r.flat_open_ms;
           Fmt.str "%.2fx" (r.warm_open_ms /. r.flat_open_ms);
         ])
       rows);
  let deep = List.find (fun r -> r.depth = 5) rows in
  let warm_over_flat = deep.warm_open_ms /. deep.flat_open_ms in
  Fmt.pr
    "@.warm resolver Open at depth 5 / flat \"[fs0]\" Open = %.2fx %s@."
    warm_over_flat
    (if warm_over_flat <= 1.2 then "(within the 1.2x bound)"
     else "(EXCEEDS 1.2x!)");

  Tables.print_section
    (Fmt.str
       "Zipf name popularity vs resolver hit ratio (%d sibling domains, \
        capacity %d, %d draws)"
       siblings zipf_cache_capacity zipf_draws);
  let zipf_rows, negative = run_popularity () in
  Tables.print_table
    ~header:[ "Zipf s"; "hit ratio"; "walks"; "queries"; "evictions" ]
    (List.map
       (fun z ->
         [
           Fmt.str "%.1f" z.exponent;
           Fmt.str "%.2f" z.hit_ratio;
           string_of_int z.z_walks;
           string_of_int z.z_queries;
           string_of_int z.z_evictions;
         ])
       zipf_rows);
  Fmt.pr
    "@.negative caching: %d resolutions of one absent name across two \
     negative-TTL windows@.made %d authoritative queries (%d answered by the \
     cached negative)@."
    negative.repeated_misses negative.authoritative_queries
    negative.negative_answers;

  Tables.print_section
    (Fmt.str
       "Hot-domain crash (mid server of a depth-3 chain down %.0f-%.0f ms)"
       crash_at (crash_at +. downtime_ms));
  let inj, stale_tally, stale_stats, cold_tally, violations = run_crash () in
  List.iter
    (fun (at, label) -> Fmt.pr "  t=%7.0f ms  %s@." at label)
    (Injector.timeline inj);
  let mean tally =
    let n = tally.successes + tally.failures in
    if n = 0 then 0.0 else tally.total_ms /. float_of_int n
  in
  Tables.print_table
    ~header:
      [ "client"; "successes"; "failures"; "stale serves"; "mean resolve (ms)" ]
    [
      [
        "stale-window resolver";
        string_of_int stale_tally.successes;
        string_of_int stale_tally.failures;
        string_of_int stale_tally.stale;
        Tables.ms (mean stale_tally);
      ];
      [
        "cold re-resolution";
        string_of_int cold_tally.successes;
        string_of_int cold_tally.failures;
        "0";
        Tables.ms (mean cold_tally);
      ];
    ];
  Fmt.pr
    "@.tree convergence after heal: %s@."
    (match violations with
    | [] -> "holds from every workstation (0 violations)"
    | vs -> Fmt.str "%d VIOLATION(S)" (List.length vs));
  List.iter (fun v -> Fmt.pr "  %a@." Invariant.pp_violation v) violations;

  Tables.record
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ( "depth_sweep",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("factor", Json.Int r.depth);
                      ("cold_resolution_ms", Json.Float r.cold_resolution_ms);
                      ("warm_open_latency_ms", Json.Float r.warm_open_ms);
                      ( "recursive_open_latency_ms",
                        Json.Float r.recursive_open_ms );
                      ("flat_open_latency_ms", Json.Float r.flat_open_ms);
                      ( "warm_over_flat",
                        Json.Float (r.warm_open_ms /. r.flat_open_ms) );
                    ])
                rows) );
         ("warm_over_flat_depth5", Json.Float warm_over_flat);
         ( "zipf",
           Json.List
             (List.map
                (fun z ->
                  Json.Obj
                    [
                      ("label", Json.String (Fmt.str "s=%.1f" z.exponent));
                      ("hit_ratio", Json.Float z.hit_ratio);
                      ("walks", Json.Int z.z_walks);
                      ("queries", Json.Int z.z_queries);
                      ("evictions", Json.Int z.z_evictions);
                    ])
                zipf_rows) );
         ( "negative_caching",
           Json.Obj
             [
               ("repeated_misses", Json.Int negative.repeated_misses);
               ( "authoritative_queries",
                 Json.Int negative.authoritative_queries );
               ("negative_answers", Json.Int negative.negative_answers);
             ] );
         ( "crash",
           Json.Obj
             [
               ("plan", Plan.to_json (Injector.plan inj));
               ( "applied_timeline",
                 Json.List
                   (List.map
                      (fun (at, label) ->
                        Json.Obj
                          [
                            ("at_ms", Json.Float at);
                            ("event", Json.String label);
                          ])
                      (Injector.timeline inj)) );
               ("stale_successes", Json.Int stale_tally.successes);
               ("stale_failures", Json.Int stale_tally.failures);
               ("stale_serves", Json.Int stale_tally.stale);
               ( "stale_serves_stat",
                 Json.Int stale_stats.Resolver.stale_serves );
               ( "stale_client_resolution_ms",
                 Json.Float (mean stale_tally) );
               ("cold_successes", Json.Int cold_tally.successes);
               ("cold_failures", Json.Int cold_tally.failures);
               ( "cold_client_resolution_ms",
                 Json.Float (mean cold_tally) );
             ] );
         ("invariant_violations", Invariant.to_json violations);
       ])
