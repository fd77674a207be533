(* Tests for the multi-component name-resolution cache: the Name_cache
   LRU itself, binding learning from server stamps, the on-use
   consistency protocol (stale cached binding -> evict, fall back,
   retry). *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Prefix_server = Vnaming.Prefix_server
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

let spec n =
  Context.spec
    ~server:(Pid.make ~logical_host:1 ~local_pid:n)
    ~context:Context.Well_known.default

let keys c = List.map fst (Name_cache.to_list c)

(* --- the LRU itself --- *)

let test_lru_capacity_and_order () =
  let c = Name_cache.create ~capacity:2 () in
  Alcotest.(check int) "capacity" 2 (Name_cache.capacity c);
  Alcotest.(check bool) "no eviction below capacity" true
    (Name_cache.learn c "[a]" (spec 1) = None);
  Alcotest.(check bool) "still none" true
    (Name_cache.learn c "[b]" (spec 2) = None);
  (* Third insertion evicts the least recently used: "[a]". *)
  Alcotest.(check (option string)) "LRU evicted" (Some "[a]")
    (Name_cache.learn c "[c]" (spec 3));
  Alcotest.(check (list string)) "MRU order" [ "[c]"; "[b]" ] (keys c);
  Alcotest.(check int) "bounded" 2 (Name_cache.length c);
  let s = Name_cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Name_cache.evictions;
  Alcotest.(check int) "insertions" 3 s.Name_cache.insertions

let test_lru_find_promotes () =
  let c = Name_cache.create ~capacity:2 () in
  ignore (Name_cache.learn c "[a]" (spec 1));
  ignore (Name_cache.learn c "[b]" (spec 2));
  (* A hit on "[a]" makes "[b]" the eviction victim. *)
  (match Name_cache.find c "[a]x" with
  | Some ("[a]", _) -> ()
  | _ -> Alcotest.fail "expected hit on [a]");
  Alcotest.(check (option string)) "victim is [b]" (Some "[b]")
    (Name_cache.learn c "[c]" (spec 3));
  let s = Name_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Name_cache.hits

let test_component_boundary_safety () =
  let c = Name_cache.create () in
  ignore (Name_cache.learn c "[fs0]a" (spec 1));
  (* "[fs0]ab" shares bytes with the key but not a component boundary:
     it must not match. *)
  Alcotest.(check bool) "no substring match" true
    (Name_cache.find c "[fs0]ab" = None);
  (match Name_cache.find c "[fs0]a/x" with
  | Some ("[fs0]a", _) -> ()
  | _ -> Alcotest.fail "boundary cut must match");
  (match Name_cache.find c "[fs0]a" with
  | Some ("[fs0]a", _) -> ()
  | _ -> Alcotest.fail "whole name must match");
  (* A bare "[prefix]" binds even with no separator after it. *)
  ignore (Name_cache.learn c "[fs0]" (spec 2));
  match Name_cache.find c "[fs0]ab" with
  | Some ("[fs0]", _) -> ()
  | _ -> Alcotest.fail "bare prefix must match after ']'"

let test_deepest_prefix_wins () =
  let c = Name_cache.create () in
  ignore (Name_cache.learn c "[fs0]" (spec 1));
  ignore (Name_cache.learn c "[fs0]a/b" (spec 2));
  match Name_cache.find c "[fs0]a/b/c.txt" with
  | Some ("[fs0]a/b", s) ->
      Alcotest.(check bool) "deep spec" true (s = spec 2)
  | _ -> Alcotest.fail "deepest cached prefix must win"

let test_trailing_separator_normalized () =
  let c = Name_cache.create () in
  ignore (Name_cache.learn c "[fs0]dir/" (spec 1));
  Alcotest.(check (list string)) "stored stripped" [ "[fs0]dir" ] (keys c);
  (match Name_cache.find c "[fs0]dir/f.txt" with
  | Some ("[fs0]dir", _) -> ()
  | _ -> Alcotest.fail "normalized key must match");
  Alcotest.(check bool) "mem normalizes too" true (Name_cache.mem c "[fs0]dir/")

let test_invalidate () =
  let c = Name_cache.create () in
  ignore (Name_cache.learn c "[fs0]" (spec 1));
  Alcotest.(check bool) "present" true (Name_cache.invalidate c "[fs0]");
  Alcotest.(check bool) "gone" false (Name_cache.invalidate c "[fs0]");
  Alcotest.(check int) "length" 0 (Name_cache.length c);
  let s = Name_cache.stats c in
  Alcotest.(check int) "one stale, not two" 1 s.Name_cache.stale

(* --- learning from server stamps: deep prefixes skip the prefix
   server --- *)

let test_deep_prefix_learned_skips_prefix_server () =
  ignore
    (run_client (fun t _self env ->
         ok_exn "mk" (Runtime.create env ~directory:true "[fs0]proj");
         ok_exn "mk2" (Runtime.create env ~directory:true "[fs0]proj/src");
         ok_exn "w"
           (Runtime.write_file env "[fs0]proj/src/deep.txt"
              (Bytes.of_string "deep"));
         Runtime.enable_name_cache env true;
         let forwards () =
           let ws = Scenario.workstation t 0 in
           Vsim.Stats.Counter.value
             (Prefix_server.stats ws.Scenario.ws_prefix).Csnh.forwards
         in
         let f0 = forwards () in
         let a =
           ok_exn "read 1" (Runtime.read_file env "[fs0]proj/src/deep.txt")
         in
         let f1 = forwards () in
         Alcotest.(check bool) "first open goes via prefix server" true
           (f1 > f0);
         (* The reply's stamp taught the deepest directory binding. *)
         Alcotest.(check bool) "deep prefix cached" true
           (Name_cache.mem (Runtime.name_cache env) "[fs0]proj/src");
         let hits0 = (Runtime.name_cache_stats env).Name_cache.hits in
         let b =
           ok_exn "read 2" (Runtime.read_file env "[fs0]proj/src/deep.txt")
         in
         Alcotest.(check int) "second open skips the prefix server" f1
           (forwards ());
         Alcotest.(check int) "and was a cache hit" (hits0 + 1)
           (Runtime.name_cache_stats env).Name_cache.hits;
         Alcotest.(check string) "same bytes" (Bytes.to_string a)
           (Bytes.to_string b)))

(* --- on-use consistency: a re-homed binding is evicted and retried
   (the ISSUE's stale-binding scenario), with the span tree showing the
   failed cached hop, the fallback through the prefix server, and the
   successful retry under one root --- *)

let test_stale_binding_evict_retry_and_span_tree () =
  let trace_id = ref 0 in
  let t =
    run_client
      ~build:(fun () ->
        Scenario.build ~workstations:1 ~file_servers:2 ~tracing:true ())
      (fun t _self env ->
        (* The file exists only on fs1; [data] initially points at
           fs0. *)
        ok_exn "write"
          (Runtime.write_file env "[fs1]tmp/moved.txt"
             (Bytes.of_string "fs1 truth"));
        let fs_spec i =
          File_server.spec (Scenario.file_server t i)
            ~context:Context.Well_known.default
        in
        ok_exn "bind data->fs0"
          (Runtime.add_prefix env "data" (`Static (fs_spec 0)));
        Runtime.enable_name_cache env true;
        (* Warm the cache: resolving "[data]" caches the fs0 binding. *)
        ignore (ok_exn "resolve" (Runtime.resolve env "[data]"));
        Alcotest.(check bool) "warmed" true
          (Name_cache.mem (Runtime.name_cache env) "[data]");
        (* Re-home the prefix: the cached binding is now stale. *)
        ok_exn "unbind" (Runtime.delete_prefix env "data");
        ok_exn "rebind data->fs1"
          (Runtime.add_prefix env "data" (`Static (fs_spec 1)));
        let stale0 = (Runtime.name_cache_stats env).Name_cache.stale in
        let inst =
          ok_exn "open through stale binding"
            (Runtime.open_ env ~mode:Vmsg.Read "[data]tmp/moved.txt")
        in
        (match Vobs.Hub.last_trace t.Scenario.obs with
        | Some id -> trace_id := id
        | None -> Alcotest.fail "no trace started");
        ok_exn "release" (Vio.Client.release (Runtime.self env) inst);
        (* Exactly one on-use invalidation, and the retry succeeded. *)
        Alcotest.(check int) "exactly one cache_stale increment"
          (stale0 + 1)
          (Runtime.name_cache_stats env).Name_cache.stale;
        Alcotest.(check bool) "stale binding evicted" false
          (Name_cache.mem (Runtime.name_cache env) "[data]");
        let back = ok_exn "re-read" (Runtime.read_file env "[data]tmp/moved.txt") in
        Alcotest.(check string) "retry reads the re-homed copy" "fs1 truth"
          (Bytes.to_string back))
  in
  let spans = Vobs.Hub.trace_spans t.Scenario.obs !trace_id in
  match spans with
  | [ root; fs0; prefix; fs1 ] ->
      let open Vobs.Span in
      (* The root is tagged: the first attempt rode a cached binding. *)
      Alcotest.(check string) "root op" "client:Open[cached]" root.op;
      Alcotest.(check int) "root is root" 0 root.parent_id;
      (* Attempt 1: straight to fs0 in the cached context; fails. *)
      Alcotest.(check string) "cached hop host" "fs0" fs0.host;
      Alcotest.(check int) "cached hop parent" root.span_id fs0.parent_id;
      Alcotest.(check string) "cached hop fails"
        (Reply.to_string Reply.Not_found) fs0.outcome;
      (* Attempt 2: fall back to the prefix server, which forwards to
         the re-homed fs1, which answers. *)
      Alcotest.(check string) "fallback host" "ws0" prefix.host;
      Alcotest.(check int) "fallback parent" root.span_id prefix.parent_id;
      Alcotest.(check string) "fallback forwards" "forward" prefix.outcome;
      Alcotest.(check string) "retry host" "fs1" fs1.host;
      Alcotest.(check int) "retry parent" prefix.span_id fs1.parent_id;
      Alcotest.(check string) "retry answers" (Reply.to_string Reply.Ok)
        fs1.outcome;
      (* "[data]tmp/moved.txt": the cached attempt starts past the
         prefix (index 6); the fallback restarts from 0. *)
      Alcotest.(check (list int)) "index_from per hop" [ 0; 6; 0; 6 ]
        (List.map (fun s -> s.index_from) [ root; fs0; prefix; fs1 ])
  | spans ->
      Alcotest.failf
        "expected 4 spans (root, stale fs0 hop, prefix, fs1), got %d:@.%a"
        (List.length spans) Vobs.Export.pp_timeline spans

(* --- disabling the cache restores uncached routing (and empties the
   table but keeps the counters) --- *)

let test_disable_clears_entries_keeps_counters () =
  ignore
    (run_client (fun _t _self env ->
         Runtime.enable_name_cache env true;
         ok_exn "write" (Runtime.write_file env "[home]nc.txt" (Bytes.of_string "x"));
         ignore (ok_exn "read" (Runtime.read_file env "[home]nc.txt"));
         let s = Runtime.name_cache_stats env in
         Alcotest.(check bool) "learned something" true (s.Name_cache.size > 0);
         Runtime.enable_name_cache env false;
         Alcotest.(check bool) "reported off" false
           (Runtime.name_cache_enabled env);
         let s' = Runtime.name_cache_stats env in
         Alcotest.(check int) "entries cleared" 0 s'.Name_cache.size;
         Alcotest.(check int) "counters kept" s.Name_cache.hits s'.Name_cache.hits;
         (* Routing still works, uncached. *)
         let hits = s'.Name_cache.hits in
         ignore (ok_exn "read uncached" (Runtime.read_file env "[home]nc.txt"));
         Alcotest.(check int) "no hit counted when off" hits
           (Runtime.name_cache_stats env).Name_cache.hits))

(* --- the cut scan against its cut-list model --- *)

type op =
  | Learn of string * int
  | Learn_at of float * float option * string * Name_cache.value
  | Find of string
  | Find_parent of string
  | Find_at of float * string
  | Invalidate of string

let pp_op ppf = function
  | Learn (k, n) -> Fmt.pf ppf "learn %S %d" k n
  | Learn_at (now, ttl, k, v) ->
      Fmt.pf ppf "learn_at %g %a %S %a" now
        Fmt.(option ~none:(any "-") float)
        ttl k Name_cache.pp_value v
  | Find name -> Fmt.pf ppf "find %S" name
  | Find_parent name -> Fmt.pf ppf "find_parent %S" name
  | Find_at (now, name) -> Fmt.pf ppf "find_at %g %S" now name
  | Invalidate k -> Fmt.pf ppf "invalidate %S" k

(* Names over a small alphabet so that keys collide: optional
   '[prefix]'s, components with ']' inside, leading, trailing and
   doubled separators, and the empty name. *)
let gen_name =
  QCheck.Gen.(
    let* prefix = oneofl [ ""; "[p]"; "[q]"; "/"; "[p]/" ] in
    let* comps =
      list_size (int_bound 4)
        (pair (oneofl [ "a"; "b"; "c]"; "x]y" ]) (oneofl [ "/"; "/"; "//" ]))
    in
    let* trailing = bool in
    let body = String.concat "" (List.map (fun (c, sep) -> c ^ sep) comps) in
    let body =
      if trailing || body = "" then body
      else String.sub body 0 (String.length body - 1)
    in
    return (prefix ^ body))

let gen_op =
  QCheck.Gen.(
    let now = map float_of_int (int_bound 40) in
    let value =
      oneof
        [
          map (fun n -> Name_cache.Bound (spec n)) (int_range 1 3);
          map (fun n -> Name_cache.Delegation (spec n)) (int_range 1 3);
          oneofl
            [ Name_cache.Negative Reply.Not_found; Negative Reply.Bad_context ];
        ]
    in
    frequency
      [
        (2, map2 (fun k n -> Learn (k, n)) gen_name (int_range 1 3));
        ( 3,
          map4
            (fun now ttl k v -> Learn_at (now, ttl, k, v))
            now
            (opt (map float_of_int (int_bound 20)))
            gen_name value );
        (3, map (fun name -> Find name) gen_name);
        (2, map (fun name -> Find_parent name) gen_name);
        (3, map2 (fun now name -> Find_at (now, name)) now gen_name);
        (1, map (fun k -> Invalidate k) gen_name);
      ])

(* Random learn, find, parent find (the route of an operation on a name
   itself), find_at and invalidate sequences: every result,
   every counter, the expired entries dropped and the recency order must
   match the model after every step. *)
let prop_cache_matches_model =
  QCheck.Test.make ~name:"cut scan equals the cut-list model" ~count:500
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Fmt.str "capacity %d: %a" cap Fmt.(list ~sep:semi pp_op) ops)
       QCheck.Gen.(pair (int_range 1 6) (list_size (int_bound 60) gen_op)))
    (fun (capacity, ops) ->
      let c = Name_cache.create ~capacity () in
      let m = Naming_model.create ~capacity in
      List.iteri
        (fun i op ->
          let same =
            match op with
            | Learn (k, n) ->
                Name_cache.learn c k (spec n) = Naming_model.learn m k (spec n)
            | Learn_at (now, ttl_ms, k, v) ->
                Name_cache.learn_at c ~now ?ttl_ms k v
                = Naming_model.learn_at m ~now ?ttl_ms k v
            | Find name -> Name_cache.find c name = Naming_model.find m name
            | Find_parent name ->
                Name_cache.find_below c name (Csname.last_component name)
                = Naming_model.find_parent m name
            | Find_at (now, name) ->
                Name_cache.find_at c ~now name
                = Naming_model.find_at m ~now name
            | Invalidate k ->
                Name_cache.invalidate c k = Naming_model.invalidate m k
          in
          if not same then
            QCheck.Test.fail_reportf "step %d (%a): results differ" i pp_op op;
          if Name_cache.stats c <> Naming_model.stats m then
            QCheck.Test.fail_reportf "step %d (%a): counters differ" i pp_op op;
          if Name_cache.dump c <> Naming_model.dump m then
            QCheck.Test.fail_reportf "step %d (%a): entries or recency differ" i
              pp_op op)
        ops;
      true)

let suite =
  [
    ( "name-cache",
      [
        Alcotest.test_case "lru capacity and order" `Quick
          test_lru_capacity_and_order;
        Alcotest.test_case "find promotes recency" `Quick test_lru_find_promotes;
        Alcotest.test_case "component boundary safety" `Quick
          test_component_boundary_safety;
        Alcotest.test_case "deepest prefix wins" `Quick test_deepest_prefix_wins;
        Alcotest.test_case "trailing separator normalized" `Quick
          test_trailing_separator_normalized;
        Alcotest.test_case "invalidate" `Quick test_invalidate;
        Alcotest.test_case "deep prefix learned skips prefix server" `Quick
          test_deep_prefix_learned_skips_prefix_server;
        Alcotest.test_case "stale binding: evict, retry, span tree" `Quick
          test_stale_binding_evict_retry_and_span_tree;
        Alcotest.test_case "disable clears entries, keeps counters" `Quick
          test_disable_clears_entries_keeps_counters;
        QCheck_alcotest.to_alcotest prop_cache_matches_model;
      ] );
  ]
