(* Tests for the federated name domains: the TTL-aware Name_cache
   extensions (expiry, negative entries, stale candidates), and the
   caching resolver role — iterative delegation walks, negative
   caching, the stale-serving window, and the delegation-cycle
   guard. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Domain_server = Vdomains.Domain_server
module Resolver = Vdomains.Resolver
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Vio.Verr.pp e

let fail_ds what = function
  | Ok v -> v
  | Error code -> Alcotest.failf "%s failed: %a" what Reply.pp code

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

let fs_root t =
  File_server.spec (Scenario.file_server t 0) ~context:Context.Well_known.default

(* --- the TTL-aware cache: expiry --- *)

let test_ttl_expiry () =
  let c = Name_cache.create () in
  ignore
    (Name_cache.learn_at c ~now:0.0 ~ttl_ms:100.0 "[dom]a"
       (Name_cache.Bound (spec 1)));
  (* Within the TTL: fresh. *)
  (match Name_cache.find_at c ~now:50.0 "[dom]a/x" with
  | Some { Name_cache.hkey = "[dom]a"; hvalue = Bound _; hfresh = true; _ } ->
      ()
  | _ -> Alcotest.fail "expected a fresh bound hit");
  (* Past the TTL: an expired binding is returned marked stale — the
     stale-serving candidate — and stays cached. *)
  (match Name_cache.find_at c ~now:200.0 "[dom]a/x" with
  | Some { Name_cache.hvalue = Bound _; hfresh = false; hexpires_at = Some e; _ }
    ->
      Alcotest.(check (float 0.0)) "expiry stamp" 100.0 e
  | _ -> Alcotest.fail "expected a stale bound hit");
  Alcotest.(check int) "stale hit counted" 1
    (Name_cache.stats c).Name_cache.stale_hits;
  Alcotest.(check bool) "stale binding kept" true (Name_cache.mem c "[dom]a");
  (* An expired referral is dropped on sight. *)
  ignore
    (Name_cache.learn_at c ~now:0.0 ~ttl_ms:100.0 "[dom]b"
       (Name_cache.Delegation (spec 2)));
  Alcotest.(check bool) "expired referral not returned" true
    (Name_cache.find_at c ~now:500.0 "[dom]b/x" = None);
  Alcotest.(check bool) "and evicted" false (Name_cache.mem c "[dom]b");
  (* An entry without a TTL never expires. *)
  ignore (Name_cache.learn_at c ~now:0.0 "[dom]c" (Name_cache.Bound (spec 3)));
  match Name_cache.find_at c ~now:1e9 "[dom]c/x" with
  | Some { Name_cache.hfresh = true; hexpires_at = None; _ } -> ()
  | _ -> Alcotest.fail "TTL-less entry must stay fresh"

(* --- negative entries: insertion, expiry, eviction --- *)

let test_negative_insert_and_evict () =
  let c = Name_cache.create ~capacity:2 () in
  ignore
    (Name_cache.learn_at c ~now:0.0 ~ttl_ms:100.0 "[dom]missing/f"
       (Name_cache.Negative Reply.Not_found));
  Alcotest.(check int) "negative counted in neg_size" 1
    (Name_cache.stats c).Name_cache.neg_size;
  (* Fresh: answers (and counts) as a negative hit. *)
  (match Name_cache.find_at c ~now:50.0 "[dom]missing/f" with
  | Some { Name_cache.hvalue = Negative Reply.Not_found; hfresh = true; _ } ->
      ()
  | _ -> Alcotest.fail "expected a fresh negative hit");
  Alcotest.(check int) "neg hit counted" 1
    (Name_cache.stats c).Name_cache.neg_hits;
  (* Expired: dropped on sight, neg_size falls. *)
  Alcotest.(check bool) "expired negative not returned" true
    (Name_cache.find_at c ~now:300.0 "[dom]missing/f" = None);
  Alcotest.(check int) "neg_size after expiry drop" 0
    (Name_cache.stats c).Name_cache.neg_size;
  (* Capacity eviction keeps the negative count honest. *)
  ignore
    (Name_cache.learn_at c ~now:0.0 ~ttl_ms:100.0 "[a]"
       (Name_cache.Negative Reply.Bad_context));
  ignore (Name_cache.learn_at c ~now:0.0 "[b]" (Name_cache.Bound (spec 1)));
  Alcotest.(check (option string)) "negative is the LRU victim" (Some "[a]")
    (Name_cache.learn_at c ~now:0.0 "[c]" (Name_cache.Bound (spec 2)));
  Alcotest.(check int) "neg_size after eviction" 0
    (Name_cache.stats c).Name_cache.neg_size;
  (* Explicit invalidation decrements it too. *)
  ignore
    (Name_cache.learn_at c ~now:0.0 ~ttl_ms:100.0 "[d]"
       (Name_cache.Negative Reply.Not_found));
  Alcotest.(check bool) "invalidate finds it" true (Name_cache.invalidate c "[d]");
  Alcotest.(check int) "neg_size after invalidate" 0
    (Name_cache.stats c).Name_cache.neg_size

(* --- construction validation --- *)

let test_creation_validation () =
  (match Name_cache.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  (match Name_cache.create ~capacity:(-3) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity must be rejected");
  let root = spec 1 in
  (match Resolver.create ~ttl_ms:0.0 ~prefix:"dom" ~root () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ttl_ms 0 must be rejected");
  (match Resolver.create ~neg_ttl_ms:(-1.0) ~prefix:"dom" ~root () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative neg_ttl_ms must be rejected");
  (match Resolver.create ~stale_window_ms:(-1.0) ~prefix:"dom" ~root () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative stale window must be rejected");
  match Resolver.create ~max_steps:0 ~prefix:"dom" ~root () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_steps 0 must be rejected"

(* --- the iterative walk: one referral per level, terminal cached --- *)

let test_iterative_walk_and_cache () =
  ignore
    (run_client (fun t self env ->
         ok_exn "write"
           (Runtime.write_file env "[fs0]tmp/dom.txt"
              (Bytes.of_string "via the tree"));
         let chain = Scenario.domain_chain t ~depth:3 in
         let r =
           Resolver.create ~prefix:"dom"
             ~root:(Domain_server.spec chain.(0) ())
             ()
         in
         let name = "[dom]d1/d2/leaf/tmp/dom.txt" in
         Alcotest.(check bool) "handles its prefix" true (Resolver.handles r name);
         Alcotest.(check bool) "not other prefixes" false
           (Resolver.handles r "[fs0]tmp/dom.txt");
         let o = ok_exn "cold resolve" (Resolver.resolve r self name) in
         Alcotest.(check int) "one query per level" 3 o.Resolver.queries;
         Alcotest.(check bool) "not stale" false o.Resolver.served_stale;
         Alcotest.(check bool) "lands on the object server" true
           (o.Resolver.spec = fs_root t);
         Alcotest.(check string) "rest interpreted by the file server"
           "tmp/dom.txt"
           (String.sub name o.Resolver.index
              (String.length name - o.Resolver.index));
         let s = Resolver.stats r in
         Alcotest.(check int) "referrals followed" 2 s.Resolver.referrals;
         Alcotest.(check int) "queries counted" 3 s.Resolver.queries;
         (* Warm: the cached terminal binding answers with zero
            queries. *)
         let o2 = ok_exn "warm resolve" (Resolver.resolve r self name) in
         Alcotest.(check int) "zero queries warm" 0 o2.Resolver.queries;
         Alcotest.(check int) "cache answer counted" 1
           (Resolver.stats r).Resolver.cache_answers;
         (* Wired into the run-time, the name reads end to end. *)
         Runtime.set_resolver env r;
         let b = ok_exn "read through the tree" (Runtime.read_file env name) in
         Alcotest.(check string) "same bytes" "via the tree"
           (Bytes.to_string b)))

(* --- a resolver-routed operation's trace covers its walk --- *)

(* A cold traced Open through the three-level tree: its root span
   starts before the walk, so the root lasts exactly what the run-time's
   latency histogram records, and each step's span hangs under it,
   waiting one hop. A warm Open answers from the resolver's cache: a
   "[cached]" root and no steps. *)
let test_traced_walk_under_root () =
  ignore
    (run_client
       ~build:(fun () -> Scenario.build ~tracing:true ())
       (fun t _self env ->
         ok_exn "write"
           (Runtime.write_file env "[fs0]tmp/fed.txt" (Bytes.of_string "hello"));
         let chain = Scenario.domain_chain t ~depth:3 in
         Runtime.set_resolver env
           (Resolver.create ~prefix:"dom"
              ~root:(Domain_server.spec chain.(0) ())
              ());
         let hub = Scenario.(t.obs) in
         let latency_sum () =
           match
             Vobs.Metrics.histogram (Vobs.Hub.metrics hub) ~host:"ws0"
               ~server:"runtime" ~op:"Open"
           with
           | Some h -> Vobs.Histogram.sum h
           | None -> 0.0
         in
         (* The Open's spans, its root first. *)
         let traced_open () =
           let before = latency_sum () in
           ignore
             (ok_exn "read" (Runtime.read_file env "[dom]d1/d2/leaf/tmp/fed.txt"));
           let spans =
             match Vobs.Hub.last_trace hub with
             | Some id -> Vobs.Hub.trace_spans hub id
             | None -> Alcotest.fail "no trace"
           in
           (latency_sum () -. before, spans)
         in
         let root_of = function
           | (root : Vobs.Span.t) :: _ -> root
           | [] -> Alcotest.fail "no spans"
         in
         let steps spans =
           List.filter (fun (s : Vobs.Span.t) -> s.op = "ResolveStep") spans
         in
         let sample, spans = traced_open () in
         let root = root_of spans in
         Alcotest.(check string) "cold root" "client:Open" root.op;
         Alcotest.(check (float 1e-9)) "root lasts the histogram's sample" sample
           (root.finished -. root.started);
         let cold = steps spans in
         Alcotest.(check (list string)) "steps under the root"
           [ "referral"; "referral"; "terminal" ]
           (List.map (fun (s : Vobs.Span.t) -> s.outcome) cold);
         List.iter
           (fun (s : Vobs.Span.t) ->
             Alcotest.(check int) "parent" root.span_id s.parent_id;
             Alcotest.(check bool)
               (Fmt.str "step waits one hop (%.3f ms)" s.queue_wait)
               true
               (s.queue_wait > 1.5 && s.queue_wait < 2.5))
           cold;
         let _, spans = traced_open () in
         Alcotest.(check string) "warm root" "client:Open[cached]"
           (root_of spans).op;
         Alcotest.(check int) "no steps warm" 0 (List.length (steps spans))))

(* --- negative caching: misses collapse to one query per TTL --- *)

let test_negative_caching_collapses_misses () =
  ignore
    (run_client (fun t self env ->
         let chain = Scenario.domain_chain t ~depth:2 in
         let r =
           Resolver.create ~prefix:"dom"
             ~root:(Domain_server.spec chain.(0) ())
             ()
         in
         let missing = "[dom]d1/nope/f.txt" in
         (match Resolver.resolve r self missing with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | Ok _ -> Alcotest.fail "absent name must not resolve"
         | Error e -> Alcotest.failf "expected Not_found, got %a" Vio.Verr.pp e);
         let q1 = (Resolver.stats r).Resolver.queries in
         for _ = 1 to 5 do
           match Resolver.resolve r self missing with
           | Error (Vio.Verr.Denied Reply.Not_found) -> ()
           | _ -> Alcotest.fail "repeat miss must fail from the cache"
         done;
         let s = Resolver.stats r in
         Alcotest.(check int) "no authoritative re-query while fresh" q1
           s.Resolver.queries;
         Alcotest.(check int) "answered from the negative entry" 5
           s.Resolver.neg_answers;
         (* Past the negative TTL the next miss re-queries — resuming
            at the still-fresh cached delegation, one query. *)
         Vsim.Proc.delay (Runtime.engine env)
           (Resolver.default_neg_ttl_ms +. 100.0);
         (match Resolver.resolve r self missing with
         | Error (Vio.Verr.Denied Reply.Not_found) -> ()
         | _ -> Alcotest.fail "expired negative must re-query");
         Alcotest.(check int) "exactly one fresh query" (q1 + 1)
           (Resolver.stats r).Resolver.queries))

(* --- through the run-time, the resolver's negative is final --- *)

(* A miss the tree answers Not_found is the operation's answer: the
   run-time does not go on to ask the prefix server, and a repeat miss
   inside the negative TTL, answered from the resolver's negative
   entry, sends no message at all. An unreachable tree still falls back
   to the prefix server. *)
let test_negative_ends_operation () =
  ignore
    (run_client (fun t _self env ->
         let chain = Scenario.domain_chain t ~depth:2 in
         Runtime.set_resolver env
           (Resolver.create ~prefix:"dom"
              ~root:(Domain_server.spec chain.(0) ())
              ());
         let prefix_requests () =
           Vsim.Stats.Counter.value
             (Prefix_server.stats (Scenario.workstation t 0).Scenario.ws_prefix)
               .Csnh.requests
         in
         let read_error what name =
           match Runtime.read_file env name with
           | Error e -> e
           | Ok _ -> Alcotest.failf "%s: an absent name read" what
         in
         let not_found what name =
           match read_error what name with
           | Vio.Verr.Denied Reply.Not_found -> ()
           | e ->
               Alcotest.failf "%s: expected Not_found, got %a" what Vio.Verr.pp
                 e
         in
         let missing = "[dom]d1/nope/f.txt" in
         let p0 = prefix_requests () in
         not_found "first miss" missing;
         Alcotest.(check int) "the walk's answer is final" p0
           (prefix_requests ());
         let txns0 = K.ipc_transaction_count Scenario.(t.domain) in
         not_found "repeat miss" missing;
         Alcotest.(check int) "a repeat miss sends nothing" txns0
           (K.ipc_transaction_count Scenario.(t.domain));
         K.crash_host
           (Option.get
              (K.host_of_addr t.Scenario.domain (Scenario.dom_addr 1)));
         ignore (read_error "unreachable tree" "[dom]d1/other/f.txt");
         Alcotest.(check int) "an unreachable tree falls back" (p0 + 1)
           (prefix_requests ())))

(* --- with both caches on, each name has one --- *)

(* A client with its name cache on and a [dom] resolver set: a [dom]
   name is learned, served and invalidated by the resolver alone, and a
   [fs0] name goes through the name cache alone. *)
let test_one_cache_per_name () =
  ignore
    (run_client (fun t _self env ->
         let ok what r = ignore (ok_exn what r) in
         let write name =
           ok name (Runtime.write_file env name (Bytes.of_string "one"))
         in
         let read name = ok name (Runtime.read_file env name) in
         ok "mkdir" (Runtime.create env ~directory:true "[fs0]one");
         write "[fs0]one/f.txt";
         let chain = Scenario.domain_chain t ~depth:2 in
         let r =
           Resolver.create ~prefix:"dom"
             ~root:(Domain_server.spec chain.(0) ())
             ()
         in
         Runtime.set_resolver env r;
         Runtime.enable_name_cache env true;
         let names () = Runtime.name_cache_stats env in
         let lookups () =
           (names ()).Name_cache.hits + (names ()).Name_cache.misses
         in
         (* [fs0]: the name cache learns, then serves. *)
         read "[fs0]one/f.txt";
         read "[fs0]one/f.txt";
         Alcotest.(check int) "[fs0] served by the name cache" 1
           (names ()).Name_cache.hits;
         Alcotest.(check int) "[fs0] never walks" 0
           (Resolver.stats r).Resolver.walks;
         (* [dom]: the resolver walks, learns the stamp, then serves. *)
         let dom = "[dom]d1/leaf/one/f.txt" in
         let lookups0 = lookups () in
         read dom;
         read dom;
         Alcotest.(check bool) "the resolver learned the stamp" true
           (Name_cache.mem (Resolver.cache r) "[dom]d1/leaf/one");
         Alcotest.(check (list string)) "the name cache learned nothing" []
           (List.filter
              (fun key -> String.starts_with ~prefix:"[dom]" key)
              (List.map fst (Name_cache.to_list (Runtime.name_cache env))));
         Alcotest.(check int) "[dom] served by the resolver" 1
           (Resolver.stats r).Resolver.cache_answers;
         Alcotest.(check int) "[dom] never looked up in the name cache" lookups0
           (lookups ());
         (* Re-home [fs0]one: the resolver's binding for it goes stale. *)
         ok "rm" (Runtime.remove env "[fs0]one/f.txt");
         ok "rmdir" (Runtime.remove env "[fs0]one");
         ok "mkdir again" (Runtime.create env ~directory:true "[fs0]one");
         write "[fs0]one/f.txt";
         let stale0 = (names ()).Name_cache.stale in
         read dom;
         Alcotest.(check int) "invalidated in the resolver" 1
           (Resolver.cache_stats r).Name_cache.stale;
         Alcotest.(check int) "not in the name cache" stale0
           (names ()).Name_cache.stale))

(* vsh's "domains on", "domains off", "domains on": a second chain on
   one installation starts fresh servers on the hosts the first booted
   at [Scenario.dom_addr], and resolves through them as the first did. *)
let test_chain_installed_twice () =
  ignore
    (run_client (fun t self _env ->
         let domain = t.Scenario.domain in
         let first = Scenario.domain_chain t ~depth:3 in
         let hosts = List.length (K.hosts domain) in
         let second = Scenario.domain_chain t ~depth:3 in
         Alcotest.(check int) "no host booted" hosts
           (List.length (K.hosts domain));
         Array.iteri
           (fun i ds ->
             let host =
               Option.get (K.host_of_addr domain (Scenario.dom_addr i))
             in
             let on_host ds =
               Pid.logical_host (Domain_server.pid ds) = K.host_logical host
             in
             Alcotest.(check bool)
               (Fmt.str "dom%d on the host at dom_addr %d" i i)
               true
               (on_host ds && on_host first.(i));
             Alcotest.(check bool)
               (Fmt.str "dom%d is a new server" i)
               false
               (Pid.equal (Domain_server.pid ds) (Domain_server.pid first.(i))))
           second;
         let r =
           Resolver.create ~prefix:"dom"
             ~root:(Domain_server.spec second.(0) ())
             ()
         in
         let o = ok_exn "resolve" (Resolver.resolve r self "[dom]d1/d2/leaf") in
         Alcotest.(check int) "one query per level" 3 o.Resolver.queries;
         Alcotest.(check bool) "lands on fs0" true
           (o.Resolver.spec = fs_root t)))

(* --- the stale-serving window --- *)

let test_stale_serving_window () =
  ignore
    (run_client (fun t self env ->
         let chain = Scenario.domain_chain t ~depth:1 in
         let root = Domain_server.spec chain.(0) () in
         let stale =
           Resolver.create ~ttl_ms:200.0 ~stale_window_ms:10_000.0 ~prefix:"dom"
             ~root ()
         in
         let windowless =
           Resolver.create ~ttl_ms:200.0 ~prefix:"dom" ~root ()
         in
         let name = "[dom]leaf/tmp/s.txt" in
         ignore (ok_exn "warm stale-capable" (Resolver.resolve stale self name));
         ignore (ok_exn "warm windowless" (Resolver.resolve windowless self name));
         (* Let both cached bindings expire, then take the tree down. *)
         Vsim.Proc.delay (Runtime.engine env) 500.0;
         K.crash_host
           (Option.get
              (K.host_of_addr t.Scenario.domain (Scenario.dom_addr 0)));
         (* The refresh fails; inside the window the expired binding is
            served anyway, tagged. *)
         let o = ok_exn "stale serve" (Resolver.resolve stale self name) in
         Alcotest.(check bool) "tagged stale" true o.Resolver.served_stale;
         Alcotest.(check int) "stale serve counted" 1
           (Resolver.stats stale).Resolver.stale_serves;
         (* Without a window, the same situation is the refresh's
            error. *)
         (match Resolver.resolve windowless self name with
         | Error (Vio.Verr.Ipc _) -> ()
         | Ok _ -> Alcotest.fail "windowless resolver must not serve stale"
         | Error e ->
             Alcotest.failf "expected an IPC error, got %a" Vio.Verr.pp e);
         (* Past the window, stale-serving stops: bounded, not
            forever. *)
         Vsim.Proc.delay (Runtime.engine env) 11_000.0;
         match Resolver.resolve stale self name with
         | Error (Vio.Verr.Ipc _) -> ()
         | Ok _ -> Alcotest.fail "the window must bound stale-serving"
         | Error e ->
             Alcotest.failf "expected an IPC error, got %a" Vio.Verr.pp e))

(* --- the delegation-cycle guard ---

   A misconfigured (or hostile) domain server whose referrals never
   consume name components: it answers every step with a referral back
   to itself at the same index. The walk must detect the repeat
   (server, index) step and fail, not spin. *)

let test_delegation_cycle_guard () =
  ignore
    (run_client (fun t self _env ->
         let host = K.boot_host Scenario.(t.domain) ~name:"evil" 60 in
         let evil =
           K.spawn host ~name:"evil-domain" (fun srv ->
               let rec loop () =
                 let msg, sender = K.receive srv in
                 let upto =
                   match msg.Vmsg.name with
                   | Some req -> req.Csname.index
                   | None -> 0
                 in
                 let sspec =
                   Context.spec ~server:(K.self_pid srv)
                     ~context:Context.Well_known.default
                 in
                 ignore
                   (K.reply srv ~to_:sender
                      (Vmsg.with_binding
                         (Vmsg.ok ~payload:Vmsg.P_referral ())
                         { Vmsg.upto; spec = sspec }));
                 loop ()
               in
               loop ())
         in
         let root = Context.spec ~server:evil ~context:Context.Well_known.default in
         let r = Resolver.create ~prefix:"dom" ~root () in
         (match Resolver.resolve r self "[dom]a/b" with
         | Error (Vio.Verr.Protocol m) ->
             Alcotest.(check string) "cycle surfaced" "resolver: delegation cycle"
               m
         | Ok _ -> Alcotest.fail "a delegation cycle must not resolve"
         | Error e ->
             Alcotest.failf "expected a protocol error, got %a" Vio.Verr.pp e);
         let s = Resolver.stats r in
         Alcotest.(check int) "loop detected once" 1 s.Resolver.loops;
         Alcotest.(check int) "after one query" 1 s.Resolver.queries;
         Alcotest.(check int) "and one referral" 1 s.Resolver.referrals))

(* A domain server answers AddContextName and DeleteContextName on its
   own entries: a delegation or a leaf binding is a duplicate to add and
   is deleted here, not at the context it leads to. *)
let test_domain_entries_bound_here () =
  ignore
    (run_client (fun t self _env ->
         let fs_root =
           File_server.spec (Scenario.file_server t 0)
             ~context:Context.Well_known.default
         in
         let servers = Scenario.domain_chain t ~depth:2 in
         let root = servers.(0) in
         let request ?payload code name =
           match
             K.send self (Domain_server.pid root)
               (Vmsg.request ~name:(Csname.make_req name) ?payload code)
           with
           | Ok (reply, replier) ->
               Alcotest.(check bool) "the domain server answers" true
                 (Pid.equal replier (Domain_server.pid root));
               Option.get (Vmsg.reply_code reply)
           | Error e -> Alcotest.failf "send: %a" K.pp_error e
         in
         let add name =
           request ~payload:(Vmsg.P_context_spec fs_root)
             Vmsg.Op.add_context_name name
         in
         let delete name = request Vmsg.Op.delete_context_name name in
         fail_ds "bind" (Domain_server.bind root "files" fs_root);
         let code = Alcotest.testable Reply.pp ( = ) in
         Alcotest.check code "add over a delegation" Reply.Duplicate_name
           (add "d1");
         Alcotest.check code "add over a leaf binding" Reply.Duplicate_name
           (add "files");
         Alcotest.check code "delete a delegation" Reply.Ok (delete "d1");
         Alcotest.check code "delete a leaf binding" Reply.Ok (delete "files");
         Alcotest.(check (list string)) "both entries gone" []
           (List.map fst (Domain_server.entries root ()))))

let suite =
  [
    ( "domains",
      [
        Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
        Alcotest.test_case "negative insert and evict" `Quick
          test_negative_insert_and_evict;
        Alcotest.test_case "creation validation" `Quick test_creation_validation;
        Alcotest.test_case "iterative walk and cache" `Quick
          test_iterative_walk_and_cache;
        Alcotest.test_case "chain installed twice" `Quick
          test_chain_installed_twice;
        Alcotest.test_case "traced walk under the root" `Quick
          test_traced_walk_under_root;
        Alcotest.test_case "negative caching collapses misses" `Quick
          test_negative_caching_collapses_misses;
        Alcotest.test_case "negative ends the operation" `Quick
          test_negative_ends_operation;
        Alcotest.test_case "one cache per name" `Quick test_one_cache_per_name;
        Alcotest.test_case "stale-serving window" `Quick
          test_stale_serving_window;
        Alcotest.test_case "entries bound here" `Quick
          test_domain_entries_bound_here;
        Alcotest.test_case "delegation cycle guard" `Quick
          test_delegation_cycle_guard;
      ] );
  ]
