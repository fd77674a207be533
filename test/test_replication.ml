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
  (t, Scenario.install_replicas t ~factor)

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

(* --- the sequence guard: in-order admission, one reply per origin --- *)

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
  let last = Vmsg.reply Reply.Not_found in
  Seq_guard.record g ~origin:1 ~seq:2 last;
  (* A retry of the last applied write gets its reply back; an older
     write (a catch-up replay) is a replay answered with a plain Ok. *)
  (match Seq_guard.admit g ~origin:1 ~seq:2 with
  | `Replay (Some r) when r == last -> ()
  | _ -> Alcotest.fail "seq 2 must replay its kept reply");
  (match Seq_guard.admit g ~origin:1 ~seq:1 with
  | `Replay None -> ()
  | _ -> Alcotest.fail "seq 1 must replay with no reply kept");
  (* Each origin has its own sequence. *)
  (match Seq_guard.admit g ~origin:2 ~seq:1 with
  | `Fresh -> ()
  | _ -> Alcotest.fail "another origin starts at seq 1");
  Alcotest.(check int) "other origin's mark" 0
    (Seq_guard.applied_seq g ~origin:2);
  (* A restart drops the reply, never the high-water mark. *)
  Seq_guard.drop_replies g;
  (match Seq_guard.admit g ~origin:1 ~seq:2 with
  | `Replay None -> ()
  | _ -> Alcotest.fail "a dropped reply must still be a replay");
  (match Seq_guard.admit g ~origin:1 ~seq:3 with
  | `Fresh -> ()
  | _ -> Alcotest.fail "seq 3 must be fresh after the restart");
  Alcotest.(check int) "high-water mark" 2 (Seq_guard.applied_seq g ~origin:1)

(* --- the write log: capped, with per-origin trim marks --- *)

let test_log_capped () =
  let t, rset = build_replicated ~seed:16 ~factor:2 () in
  let d = Scenario.(t.domain) in
  let service = Replica.service rset in
  let msg = Vmsg.ok () in
  for seq = 1 to 1030 do
    K.log_group_write d ~service ~origin:7 ~seq msg
  done;
  K.log_group_write d ~service ~origin:8 ~seq:1 msg;
  (* The oldest entries trim out, leaving their per-origin high-water
     mark behind. *)
  Alcotest.(check int) "log capped" 1024
    (List.length (K.group_write_log d ~service));
  Alcotest.(check (list (pair int int)))
    "oldest first" [ (7, 8); (8, 1) ]
    (List.map
       (fun (o, s, _) -> (o, s))
       (List.filteri
          (fun i _ -> i = 0 || i = 1023)
          (K.group_write_log d ~service)));
  Alcotest.(check (list (pair int int)))
    "trim high-water mark" [ (7, 7) ]
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

(* --- no reachable member: nothing logged, no seq taken --- *)

let test_no_member_nothing_logged () =
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
         (* Kill the only member's process (host stays up): the
            coordinator finds no member to send to, so it answers
            No_server without logging the write. *)
         ignore
           (K.destroy_process d
              (File_server.pid (snd (List.hd (Replica.members rset)))));
         match Runtime.create env "[rstore]top/ghost" with
         | Ok () -> Alcotest.fail "create with no live member succeeded"
         | Error (_ : Verr.t) -> ()));
  Scenario.run t;
  Alcotest.(check int) "failed write not in the log" 1
    (List.length (K.group_write_log d ~service));
  (* Revive over the surviving disk; the next write takes the seq the
     failed one did not, so the member's in-order guard sees no gap. *)
  (match Replica.revive rset (Scenario.fs_addr 0) with
  | Some (_ : File_server.t) -> ()
  | None -> Alcotest.fail "revive returned no member");
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer2" (fun _self env ->
         ok_exn "create" (Runtime.create env "[rstore]top/real")));
  Scenario.run t;
  Alcotest.(check (list int))
    "gap-free seq stream" [ 1; 2 ]
    (List.map (fun (_, seq, _) -> seq) (K.group_write_log d ~service))

(* --- a coordinator lost in mid fan-out: the catch-up still ends --- *)

let host_at t addr =
  match K.host_of_addr Scenario.(t.domain) addr with
  | Some h -> h
  | None -> Alcotest.failf "no host at %d" addr

(* The names in a member's directory [dir], read from its own file
   system. *)
let listing fs dir =
  let fs = File_server.fs fs in
  match Fs.lookup fs ~dir:Fs.root_ino dir with
  | Some (Fs.Dir_entry ino) -> List.map fst (Fs.entries fs ~dir:ino)
  | Some _ | None -> Alcotest.failf "%s is not a directory" dir

(* ws0's host crashes while its prefix server is fanning a Create out
   to three members. A later revive of fs2 must still end in fs2's
   rejoin, with nothing left queued: the write's log entry is replayed
   like any other. *)
let test_coordinator_crash_catchup () =
  let t, rset = build_replicated ~workstations:2 ~seed:5 ~factor:3 () in
  let domain = Scenario.(t.domain) and engine = Scenario.(t.engine) in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top")));
  Scenario.run t;
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         ignore (Runtime.create env "[rstore]top/x")));
  Vsim.Engine.schedule ~delay:8.0 engine (fun () ->
      K.crash_host (host_at t (Scenario.ws_addr 0)));
  Scenario.run t;
  let fs2 = Scenario.fs_addr 2 in
  K.crash_host (host_at t fs2);
  K.restart_host (host_at t fs2);
  let fresh =
    match Replica.revive rset fs2 with
    | Some fs -> File_server.pid fs
    | None -> Alcotest.fail "revive returned no member"
  in
  Scenario.run ~until:10_000.0 t;
  let visible =
    K.service_group_members domain ~requester:(Scenario.ws_addr 1)
      ~service:(Replica.service rset)
  in
  Alcotest.(check int) "every member visible" 3 (List.length visible);
  Alcotest.(check bool) "fs2 rejoined" true (List.exists (Pid.equal fresh) visible);
  Alcotest.(check int) "nothing left queued" 0 (Vsim.Engine.pending engine);
  Replica.sync rset;
  Scenario.run ~until:20_000.0 t;
  List.iter
    (fun (_, fs) ->
      Alcotest.(check (list string)) "members agree on top/x" [ "x" ]
        (listing fs "top"))
    (Replica.members rset)

(* --- a write every member refused stays logged and lands later --- *)

(* [top/a] is sent under total loss, so no member applies it. [top/b]
   follows, and both members, a write behind, refuse it as a gap. Both
   stay logged with their own seqs, so the sync lands them in order and
   [top/c] takes the next seq. *)
let test_refused_write_lands () =
  let t, rset = build_replicated ~seed:20 ~factor:2 () in
  let net = Scenario.(t.net) in
  let create name =
    let result = ref (Ok ()) in
    ignore
      (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
           result := Runtime.create env ("[rstore]" ^ name)));
    Scenario.run t;
    !result
  in
  let no_server name = function
    | Error (Verr.Denied Reply.No_server) -> ()
    | Ok () -> Alcotest.failf "%s: answered Ok" name
    | Error e -> Alcotest.failf "%s: %a, not No_server" name Verr.pp e
  in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top")));
  Scenario.run t;
  Vnet.Ethernet.set_loss_probability net 1.0;
  no_server "top/a" (create "top/a");
  Vnet.Ethernet.set_loss_probability net 0.0;
  no_server "top/b" (create "top/b");
  Replica.sync rset;
  Scenario.run t;
  ok_exn "top/c" (create "top/c");
  List.iter
    (fun (_, fs) ->
      Alcotest.(check (list string)) "member lists a, b and c"
        [ "a"; "b"; "c" ] (listing fs "top"))
    (Replica.members rset);
  Alcotest.(check (list string))
    "members agree" []
    (List.map (Fmt.str "%a" Invariant.pp_violation)
       (Invariant.replica_divergence t
          ~members:(List.map snd (Replica.members rset))
          ~names:[ "top"; "top/a"; "top/b"; "top/c" ]))

(* --- a catch-up over a full log --- *)

(* The log is at its cap when fs1 revives, so each write that lands
   during the replay trims one entry and the log's length stays put.
   The catch-up must still replay that write before fs1 rejoins. *)
let test_catchup_over_full_log () =
  let t, rset = build_replicated ~seed:21 ~factor:2 () in
  let fs1 = Scenario.fs_addr 1 in
  let writer body =
    ignore (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env -> body env))
  in
  writer (fun env ->
      ok_exn "mkdir" (Runtime.create env ~directory:true "[rstore]top");
      for _ = 1 to 550 do
        ok_exn "create" (Runtime.create env "[rstore]top/f");
        ok_exn "remove" (Runtime.remove env "[rstore]top/f")
      done);
  Scenario.run t;
  Alcotest.(check bool) "the log was trimmed" true
    (K.group_write_trimmed Scenario.(t.domain) ~service:(Replica.service rset)
     <> []);
  K.crash_host (host_at t fs1);
  K.restart_host (host_at t fs1);
  ignore (Replica.revive rset fs1);
  writer (fun env -> ok_exn "create" (Runtime.create env "[rstore]top/late"));
  Scenario.run t;
  List.iter
    (fun (_, fs) ->
      Alcotest.(check (list string)) "members list the late write" [ "late" ]
        (listing fs "top"))
    (Replica.members rset)

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

(* --- an Open for writing through the binding is refused --- *)

(* Writing or appending to a file through the replica-bound binding
   would create or fill it on the one member GetPid picks, so the
   coordinator refuses the Open: the client sees Bad_operation and no
   member holds the file. *)
let test_write_open_refused () =
  let t, rset = build_replicated ~seed:22 ~factor:2 () in
  let results = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"writer" (fun _self env ->
         let data = Bytes.of_string "one member only" in
         results :=
           [
             ("write", Runtime.write_file env "[rstore]x" data);
             ("append", Runtime.append_file env "[rstore]y" data);
           ]));
  Scenario.run t;
  List.iter
    (fun (what, result) ->
      match result with
      | Error (Verr.Denied Reply.Bad_operation) -> ()
      | Ok () -> Alcotest.failf "%s through [rstore] succeeded" what
      | Error e ->
          Alcotest.failf "%s: expected bad operation, got %a" what Verr.pp e)
    !results;
  List.iter
    (fun (addr, fs) ->
      List.iter
        (fun name ->
          match Fs.lookup (File_server.fs fs) ~dir:Fs.root_ino name with
          | None -> ()
          | Some _ -> Alcotest.failf "member at %d holds %s" addr name)
        [ "x"; "y" ])
    (Replica.members rset)

let suite =
  [
    ( "replication",
      [
        Alcotest.test_case "read-one balancing is deterministic" `Quick
          test_balancing_deterministic;
        Alcotest.test_case "write-all converges; duplicates suppressed" `Quick
          test_write_all_converges;
        Alcotest.test_case "seq guard: in-order, gaps refused, one reply per origin"
          `Quick test_seq_guard_ordering;
        Alcotest.test_case "write log: capped, trim marks kept" `Quick
          test_log_capped;
        Alcotest.test_case "writes racing a revive catch-up converge" `Quick
          test_revive_catchup_converges;
        Alcotest.test_case "partitioned member refuses gaps; heal sync"
          `Quick test_partition_heal_sync;
        Alcotest.test_case "crossed partitions reconverge on sync" `Quick
          test_crossed_partition_sync;
        Alcotest.test_case "no member reachable: nothing logged, no seq"
          `Quick test_no_member_nothing_logged;
        Alcotest.test_case "coordinator crash mid fan-out: revive rejoins"
          `Quick test_coordinator_crash_catchup;
        Alcotest.test_case "a write every member refused lands on sync"
          `Quick test_refused_write_lands;
        Alcotest.test_case "a catch-up over a full log misses nothing" `Quick
          test_catchup_over_full_log;
        Alcotest.test_case "failover to survivor, tagged exactly once" `Quick
          test_failover_span;
        Alcotest.test_case "divergence invariant fires on skew" `Quick
          test_divergence_detected;
        Alcotest.test_case "an Open for writing through the binding is refused"
          `Quick test_write_open_refused;
      ] );
  ]
