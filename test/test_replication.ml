(* Tests for replicated name services: deterministic read-one balancing
   through GetPid, write-all convergence and duplicate suppression under
   redelivery, client failover to a surviving member (with the span tag
   that records it), and the replica-divergence invariant actually
   firing when members are skewed behind the coordinator's back. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Verr = Vio.Verr
module File_server = Vservices.File_server
module Replica = Vservices.Replica
module Fs = Vservices.Fs
module Invariant = Vfault.Invariant
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Verr.pp e

(* Build an installation with the first [factor] file servers joined
   into a replica set and "[rstore]" bound to it on every workstation —
   the E10 setup, miniaturized. *)
let build_replicated ?(workstations = 1) ?(file_servers = 3) ?seed ?tracing
    ~factor () =
  let t = Scenario.build ~workstations ~file_servers ?seed ?tracing () in
  let domain = Scenario.(t.domain) in
  let members =
    List.init factor (fun i ->
        match K.host_of_addr domain (Scenario.fs_addr i) with
        | Some host -> (host, Scenario.(t.file_servers).(i))
        | None -> assert false)
  in
  let rset = Replica.install domain ~members () in
  Array.iter
    (fun ws ->
      match
        Prefix_server.add_binding
          Scenario.(ws.ws_prefix)
          "rstore" (Replica.target rset)
      with
      | Ok () -> ()
      | Error code -> Alcotest.failf "binding rstore: %a" Reply.pp code)
    Scenario.(t.workstations);
  (t, rset)

(* --- read-one balancing: deterministic and actually balanced --- *)

(* Resolving the logical binding repeatedly walks the balancer cursor;
   the member sequence is a pure function of the installation seed, and
   it visits more than one member. *)
let member_sequence seed =
  let t, rset = build_replicated ~seed ~factor:3 () in
  let pids = Replica.member_pids rset in
  let index pid =
    let rec go i = function
      | [] -> Alcotest.failf "resolved to non-member pid %d" (Pid.to_int pid)
      | p :: rest -> if Pid.equal p pid then i else go (i + 1) rest
    in
    go 0 pids
  in
  let seq = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"balance-probe" (fun _self env ->
         for _ = 1 to 8 do
           let spec = ok_exn "resolve [rstore]" (Runtime.resolve env "[rstore]") in
           seq := index spec.Context.server :: !seq
         done));
  Scenario.run t;
  List.rev !seq

let test_balancing_deterministic () =
  let a = member_sequence 11 and b = member_sequence 11 in
  Alcotest.(check (list int)) "same seed, same member sequence" a b;
  Alcotest.(check bool) "more than one member served reads" true
    (List.sort_uniq compare a |> List.length > 1)

(* --- write-all convergence and duplicate suppression --- *)

let test_write_all_converges () =
  let t, rset = build_replicated ~seed:12 ~factor:2 () in
  let domain = Scenario.(t.domain) in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top");
         ok_exn "create" (Runtime.create env "[rstore]top/a");
         ok_exn "create" (Runtime.create env "[rstore]top/b");
         ok_exn "remove" (Runtime.remove env "[rstore]top/b")));
  Scenario.run t;
  let members = List.map snd (Replica.members rset) in
  Alcotest.(check (list string))
    "members converged" []
    (List.map (Fmt.str "%a" Invariant.pp_violation)
       (Invariant.replica_divergence t ~members ~names:[ "top"; "top/a" ]));
  (* Redeliver an already-applied logged write straight to one member —
     the retry a coordinator performs after a lost frame. The member's
     sequence guard must swallow it: no error, and no divergence. *)
  let log = K.group_write_log domain ~service:(Replica.service rset) in
  Alcotest.(check bool) "writes were logged" true (List.length log >= 4);
  let _, _, dup = List.nth log (List.length log - 1) in
  let member0 = List.hd members in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"redeliver" (fun self _env ->
         match K.send self (File_server.pid member0) dup with
         | Error e -> Alcotest.failf "redelivery failed: %a" K.pp_error e
         | Ok (_ : Vmsg.t * Pid.t) -> ()));
  Scenario.run t;
  Alcotest.(check (list string))
    "redelivery changed nothing" []
    (List.map (Fmt.str "%a" Invariant.pp_violation)
       (Invariant.replica_divergence t ~members ~names:[ "top"; "top/a" ]))

(* --- failover: the surviving member takes over, tagged once --- *)

let test_failover_span () =
  let t, rset = build_replicated ~seed:13 ~factor:2 ~tracing:true () in
  let domain = Scenario.(t.domain) in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"failover-client" (fun _self env ->
         Runtime.set_resilience env ~seed:21 ();
         (* Pin the replicated root: relative operations now go straight
            to one member and must fail over by re-resolution when that
            member dies. *)
         let spec =
           ok_exn "pin [rstore]" (Runtime.change_context env "[rstore]")
         in
         let addr, _ =
           List.find
             (fun (_, fs) -> Pid.equal (File_server.pid fs) spec.Context.server)
             (Replica.members rset)
         in
         (match K.host_of_addr domain addr with
         | Some host -> K.crash_host host
         | None -> Alcotest.fail "member host missing");
         ok_exn "query after crash"
           (Result.map
              (fun (_ : Descriptor.t) -> ())
              (Runtime.query env "tmp"))));
  Scenario.run t;
  let tagged tag =
    List.filter
      (fun s -> List.mem tag (Vobs.Span.tags s))
      (Vobs.Hub.all_spans Scenario.(t.obs))
  in
  Alcotest.(check int) "exactly one failover:1 span" 1
    (List.length (tagged "failover:1"));
  Alcotest.(check int) "no second failover" 0
    (List.length (tagged "failover:2"))

(* --- the sequence guard: in-order admission, bounded reply cache --- *)

let test_seq_guard_ordering () =
  let g = Seq_guard.create () in
  (match Seq_guard.admit g ~origin:1 ~seq:1 with
  | `Fresh -> ()
  | _ -> Alcotest.fail "seq 1 must be fresh");
  Seq_guard.record g ~origin:1 ~seq:1 (Vmsg.ok ());
  (* A skipped sequence number is a gap: the member missed a write and
     must refuse, not apply out of order. *)
  (match Seq_guard.admit g ~origin:1 ~seq:3 with
  | `Gap -> ()
  | _ -> Alcotest.fail "seq 3 after 1 must be a gap");
  (match Seq_guard.admit g ~origin:1 ~seq:2 with
  | `Fresh -> ()
  | _ -> Alcotest.fail "seq 2 must be fresh");
  Seq_guard.record g ~origin:1 ~seq:2 (Vmsg.ok ());
  (match Seq_guard.admit g ~origin:1 ~seq:1 with
  | `Replay (Some _) -> ()
  | _ -> Alcotest.fail "seq 1 must replay its cached reply");
  (* Reply cache is a sliding window: old replies age out (answered
     with a plain Ok), the dedupe high-water mark never does. *)
  for seq = 3 to 40 do
    Seq_guard.record g ~origin:1 ~seq (Vmsg.ok ())
  done;
  (match Seq_guard.admit g ~origin:1 ~seq:1 with
  | `Replay None -> ()
  | _ -> Alcotest.fail "evicted reply must still be a replay");
  (match Seq_guard.admit g ~origin:1 ~seq:9 with
  | `Replay (Some _) -> ()
  | _ -> Alcotest.fail "in-window reply must stay cached");
  Alcotest.(check int) "high-water mark" 40 (Seq_guard.applied_seq g ~origin:1)

(* --- the write-log lifecycle: pending, committed, aborted, capped --- *)

let test_log_lifecycle () =
  let t, rset = build_replicated ~seed:16 ~factor:2 () in
  let d = Scenario.(t.domain) in
  let service = Replica.service rset in
  let msg = Vmsg.ok () in
  K.log_group_write d ~service ~origin:7 ~seq:1 msg;
  Alcotest.(check bool) "pending after append" true
    (K.group_write_pending d ~service);
  Alcotest.(check int) "pending entry hidden from replay" 0
    (List.length (K.group_write_log d ~service));
  K.commit_group_write d ~service ~origin:7 ~seq:1;
  Alcotest.(check bool) "committed entry not pending" false
    (K.group_write_pending d ~service);
  Alcotest.(check int) "committed entry visible" 1
    (List.length (K.group_write_log d ~service));
  K.log_group_write d ~service ~origin:7 ~seq:2 msg;
  K.abort_group_write d ~service ~origin:7 ~seq:2;
  Alcotest.(check bool) "aborted entry not pending" false
    (K.group_write_pending d ~service);
  Alcotest.(check int) "aborted entry removed" 1
    (List.length (K.group_write_log d ~service));
  (* Overflow the cap: the oldest committed entries trim out, leaving
     their per-origin high-water mark behind. *)
  for seq = 2 to 1030 do
    K.log_group_write d ~service ~origin:7 ~seq msg;
    K.commit_group_write d ~service ~origin:7 ~seq
  done;
  Alcotest.(check int) "log capped" 1024
    (List.length (K.group_write_log d ~service));
  Alcotest.(check (list (pair int int)))
    "trim high-water mark" [ (7, 6) ]
    (K.group_write_trimmed d ~service)

(* --- revive: writes racing the catch-up still reach the member --- *)

let test_revive_catchup_converges () =
  let t, rset = build_replicated ~seed:15 ~factor:2 () in
  let domain = Scenario.(t.domain) in
  let addr1 = Scenario.fs_addr 1 in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top");
         (match K.host_of_addr domain addr1 with
         | Some h -> K.crash_host h
         | None -> Alcotest.fail "member host missing");
         (* Member 1 is down: these reach member 0 only, via the log. *)
         for i = 1 to 8 do
           ok_exn "create" (Runtime.create env (Fmt.str "[rstore]top/down%d" i))
         done;
         (match K.host_of_addr domain addr1 with
         | Some h -> K.restart_host h
         | None -> ());
         (match Replica.revive rset addr1 with
         | Some (_ : File_server.t) -> ()
         | None -> Alcotest.fail "revive returned no member");
         (* The catch-up is replaying right now: these writes race the
            rejoin, and the drain loop + pending check must ensure the
            revived member gets every one — by replay if they land
            before the rejoin, by fan-out if after. *)
         for i = 1 to 8 do
           ok_exn "create"
             (Runtime.create env (Fmt.str "[rstore]top/during%d" i))
         done));
  Scenario.run t;
  let members = List.map snd (Replica.members rset) in
  let names =
    "top"
    :: List.concat_map
         (fun i -> [ Fmt.str "top/down%d" i; Fmt.str "top/during%d" i ])
         [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check (list string))
    "revived member missed nothing" []
    (List.map (Fmt.str "%a" Invariant.pp_violation)
       (Invariant.replica_divergence t ~members ~names))

(* --- partition: gap rejection while behind, heal-time sync converges --- *)

let sum_metric t op =
  let metrics = Vobs.Hub.metrics Scenario.(t.obs) in
  List.fold_left
    (fun acc ((k : Vobs.Metrics.key), v) ->
      if k.Vobs.Metrics.op = op then acc + v else acc)
    0
    (Vobs.Metrics.counters metrics)

let test_partition_heal_sync () =
  let t, rset = build_replicated ~seed:18 ~factor:2 () in
  let net = Scenario.(t.net) in
  let ws0 = Scenario.ws_addr 0 and fs1 = Scenario.fs_addr 1 in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"part-writer" (fun _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top");
         Vnet.Ethernet.partition net ws0 fs1;
         (* The coordinator cannot reach member 1: these land on member
            0 only, but stay in the committed log. *)
         ok_exn "create" (Runtime.create env "[rstore]top/part1");
         ok_exn "create" (Runtime.create env "[rstore]top/part2");
         Vnet.Ethernet.heal net ws0 fs1;
         (* Member 1 is reachable again but two writes behind: it must
            refuse this one (sequence gap) rather than apply it out of
            order; member 0 still answers the client. *)
         ok_exn "create" (Runtime.create env "[rstore]top/post1")));
  Scenario.run t;
  let members = List.map snd (Replica.members rset) in
  let names = [ "top"; "top/part1"; "top/part2"; "top/post1" ] in
  Alcotest.(check bool) "member is behind before the sync" true
    (Invariant.replica_divergence t ~members ~names <> []);
  Alcotest.(check bool) "out-of-sync rejection recorded" true
    (sum_metric t "replicate-out-of-sync" >= 1);
  Replica.sync rset;
  Scenario.run t;
  Alcotest.(check (list string))
    "heal-time sync reconverges the member" []
    (List.map (Fmt.str "%a" Invariant.pp_violation)
       (Invariant.replica_divergence t ~members ~names))

(* --- crossed partitions: each member misses the other coordinator's
   write --- *)

(* ws0 cannot reach fs1 and ws1 cannot reach fs0, so each coordinator's
   write lands on a different member, and each member holds an
   acknowledged write the other lacks. A snapshot from either peer
   would lose one of them: the heal-time sync must bring each member
   the origin it missed. *)
let test_crossed_partition_sync () =
  let t, rset = build_replicated ~workstations:2 ~seed:19 ~factor:2 () in
  let net = Scenario.(t.net) in
  let ws0 = Scenario.ws_addr 0 and ws1 = Scenario.ws_addr 1 in
  let fs0 = Scenario.fs_addr 0 and fs1 = Scenario.fs_addr 1 in
  let create ~ws ?directory name =
    ignore
      (Scenario.spawn_client t ~ws ~name:"writer" (fun _self env ->
           ok_exn name (Runtime.create env ?directory ("[rstore]" ^ name))));
    Scenario.run t
  in
  create ~ws:0 ~directory:true "top";
  Vnet.Ethernet.partition net ws0 fs1;
  Vnet.Ethernet.partition net ws1 fs0;
  create ~ws:0 "top/a";
  create ~ws:1 "top/b";
  Vnet.Ethernet.heal net ws0 fs1;
  Vnet.Ethernet.heal net ws1 fs0;
  let members = List.map snd (Replica.members rset) in
  let names = [ "top"; "top/a"; "top/b" ] in
  Alcotest.(check bool) "members diverge before the sync" true
    (Invariant.replica_divergence t ~members ~names <> []);
  Replica.sync rset;
  Scenario.run t;
  Alcotest.(check (list string))
    "the sync replays each member's missing origin" []
    (List.map (Fmt.str "%a" Invariant.pp_violation)
       (Invariant.replica_divergence t ~members ~names))

(* --- a definitively failed write is aborted, not resurrected --- *)

let test_no_resurrection () =
  let t, rset = build_replicated ~seed:17 ~factor:1 () in
  let d = Scenario.(t.domain) in
  let service = Replica.service rset in
  let tight =
    {
      Vio.Resilience.max_retries = 1;
      base_backoff_ms = 5.0;
      max_backoff_ms = 10.0;
      deadline_ms = 200.0;
    }
  in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         Runtime.set_resilience env ~policy:tight ~seed:31 ();
         ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top");
         (* Kill the only member's process (host stays up): the fan-out
            finds no live member, fails definitively, and must remove
            its log entry — the client was told the write did not
            happen, so no later replay may apply it. *)
         ignore
           (K.destroy_process d
              (File_server.pid (snd (List.hd (Replica.members rset)))));
         match Runtime.create env "[rstore]top/ghost" with
         | Ok () -> Alcotest.fail "create with no live member succeeded"
         | Error (_ : Verr.t) -> ()));
  Scenario.run t;
  Alcotest.(check int) "failed write not in the log" 1
    (List.length (K.group_write_log d ~service));
  Alcotest.(check bool) "nothing left pending" false
    (K.group_write_pending d ~service);
  (* Revive over the surviving disk; the next write reuses the aborted
     sequence number, keeping the committed stream gap-free for the
     in-order guard. *)
  (match Replica.revive rset (Scenario.fs_addr 0) with
  | Some (_ : File_server.t) -> ()
  | None -> Alcotest.fail "revive returned no member");
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer2" (fun _self env ->
         ok_exn "create" (Runtime.create env "[rstore]top/real")));
  Scenario.run t;
  Alcotest.(check (list int))
    "gap-free committed seq stream" [ 1; 2 ]
    (List.map (fun (_, seq, _) -> seq) (K.group_write_log d ~service))

(* --- the divergence invariant can actually fire --- *)

let test_divergence_detected () =
  let t, rset = build_replicated ~seed:14 ~factor:2 () in
  let members = List.map snd (Replica.members rset) in
  (* Skew one member behind the coordinator's back: a directory created
     directly on member 0 that the write-all protocol never saw. *)
  (match
     Fs.mkdir (File_server.fs (List.hd members)) ~dir:Fs.root_ino ~owner:"test"
       "skew"
   with
  | Ok (_ : int) -> ()
  | Error code -> Alcotest.failf "direct mkdir: %a" Reply.pp code);
  match Invariant.replica_divergence t ~members ~names:[ "skew" ] with
  | [] -> Alcotest.fail "skewed members reported as converged"
  | v :: _ ->
      Alcotest.(check string)
        "right invariant" "replica-divergence" v.Invariant.invariant

let suite =
  [
    ( "replication",
      [
        Alcotest.test_case "read-one balancing is deterministic" `Quick
          test_balancing_deterministic;
        Alcotest.test_case "write-all converges; duplicates suppressed" `Quick
          test_write_all_converges;
        Alcotest.test_case "seq guard: in-order, gaps refused, cache bounded"
          `Quick test_seq_guard_ordering;
        Alcotest.test_case "write log: pending/commit/abort, capped" `Quick
          test_log_lifecycle;
        Alcotest.test_case "writes racing a revive catch-up converge" `Quick
          test_revive_catchup_converges;
        Alcotest.test_case "partitioned member refuses gaps; heal sync"
          `Quick test_partition_heal_sync;
        Alcotest.test_case "crossed partitions reconverge on sync" `Quick
          test_crossed_partition_sync;
        Alcotest.test_case "definite fan-out failure aborts, no resurrection"
          `Quick test_no_resurrection;
        Alcotest.test_case "failover to survivor, tagged exactly once" `Quick
          test_failover_span;
        Alcotest.test_case "divergence invariant fires on skew" `Quick
          test_divergence_detected;
      ] );
  ]
