(* Tests for the fault-injection subsystem and the client resilience
   policy: plan determinism and convergence, the pure retry policy
   (classification, backoff, give-up), logical-binding failover to a
   restarted server's successor, pinned-context re-resolution on
   transport retries, and the kernel's recovery for locally-submitted
   transactions forwarded to a remote host. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module Ethernet = Vnet.Ethernet
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Resilience = Vio.Resilience
module Verr = Vio.Verr
module File_server = Vservices.File_server
module Plan = Vfault.Plan
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Verr.pp e

(* --- fault plans: pure, seed-deterministic data --- *)

let generate seed =
  Plan.generate ~seed ~duration_ms:60_000.0
    ~crashable:[ Scenario.fs_addr 0; Scenario.fs_addr 1 ]
    ~partitionable:[ Scenario.ws_addr 0; Scenario.ws_addr 1; Scenario.printer_addr ]
    ~slowable:[ Scenario.fs_addr 0; Scenario.printer_addr ]
    ()

let test_plan_determinism () =
  Alcotest.(check string)
    "same seed, same plan"
    (Plan.to_string (generate 42))
    (Plan.to_string (generate 42));
  Alcotest.(check bool)
    "different seed, different plan" false
    (Plan.to_string (generate 42) = Plan.to_string (generate 43))

(* Replay a plan's events over an abstract fault state: a generated plan
   must leave everything healed by its horizon (every crash restarted,
   every partition healed, loss zero, no host slowed). *)
let test_plan_converges () =
  let plan = generate 7 in
  Alcotest.(check bool) "plan is non-trivial" true (plan.Plan.events <> []);
  let down = Hashtbl.create 8
  and parts = Hashtbl.create 8
  and slow = Hashtbl.create 8
  and cut = Hashtbl.create 8
  and slow_links = Hashtbl.create 8
  and loss = ref 0.0 in
  List.iter
    (fun { Plan.at; action } ->
      Alcotest.(check bool) "event before 90% horizon" true (at <= 54_000.0);
      match action with
      | Plan.Crash a -> Hashtbl.replace down a ()
      | Plan.Restart a -> Hashtbl.remove down a
      | Plan.Partition (a, b) -> Hashtbl.replace parts (a, b) ()
      | Plan.Heal (a, b) -> Hashtbl.remove parts (a, b)
      | Plan.Loss p -> loss := p
      | Plan.Slow (a, ms) ->
          if ms > 0.0 then Hashtbl.replace slow a () else Hashtbl.remove slow a
      | Plan.Link_cut l -> Hashtbl.replace cut l ()
      | Plan.Link_heal l -> Hashtbl.remove cut l
      | Plan.Link_slow (l, ms) ->
          if ms > 0.0 then Hashtbl.replace slow_links l ()
          else Hashtbl.remove slow_links l)
    plan.Plan.events;
  Alcotest.(check int) "all hosts back up" 0 (Hashtbl.length down);
  Alcotest.(check int) "all partitions healed" 0 (Hashtbl.length parts);
  Alcotest.(check int) "no host slowed" 0 (Hashtbl.length slow);
  Alcotest.(check int) "all links healed" 0 (Hashtbl.length cut);
  Alcotest.(check int) "no link slowed" 0 (Hashtbl.length slow_links);
  Alcotest.(check (float 0.0)) "loss restored to zero" 0.0 !loss

let test_plan_combinators () =
  match Plan.crash_restart ~addr:(Scenario.fs_addr 0) ~at:100.0 ~downtime_ms:50.0 with
  | [ { Plan.at = a1; action = Plan.Crash _ }; { at = a2; action = Plan.Restart _ } ] ->
      Alcotest.(check (float 0.0)) "crash time" 100.0 a1;
      Alcotest.(check (float 0.0)) "restart after downtime" 150.0 a2
  | _ -> Alcotest.fail "crash_restart must pair the fault with its recovery"

(* --- the pure retry policy --- *)

let test_retryable_classification () =
  let yes = Alcotest.(check bool) "retryable" true
  and no = Alcotest.(check bool) "permanent" false in
  yes (Resilience.retryable (Verr.Ipc K.Timeout));
  yes (Resilience.retryable (Verr.Ipc K.Nonexistent_process));
  yes (Resilience.retryable (Verr.Ipc K.No_reply));
  yes (Resilience.retryable (Verr.Denied Reply.Retry));
  (* A down implementer (or its lost GetPid reply) shows up as
     No_server; a retry after its restart must be allowed to find the
     successor. *)
  yes (Resilience.retryable (Verr.Denied Reply.No_server));
  no (Resilience.retryable (Verr.Denied Reply.Not_found));
  no (Resilience.retryable (Verr.Denied Reply.No_permission));
  no (Resilience.retryable (Verr.Protocol "bad reply"));
  no (Resilience.retryable (Verr.Unavailable { attempts = 3; last = "x" }))

let test_backoff_deterministic_and_bounded () =
  let schedule seed =
    let prng = Vsim.Prng.create ~seed in
    List.map
      (fun attempt -> Resilience.backoff_ms Resilience.default prng ~attempt)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check (list (float 0.0)))
    "same seed replays the schedule" (schedule 9) (schedule 9);
  let p = Resilience.default in
  List.iteri
    (fun i wait ->
      let cap =
        Float.min p.Resilience.max_backoff_ms
          (p.Resilience.base_backoff_ms *. Float.of_int (1 lsl i))
      in
      Alcotest.(check bool)
        (Fmt.str "attempt %d in [cap/2, cap)" (i + 1))
        true
        (wait >= cap /. 2.0 && wait < cap))
    (schedule 11)

let test_next_step_and_give_up () =
  let prng = Vsim.Prng.create ~seed:1 in
  let p = Resilience.default in
  (match Resilience.next_step p prng ~attempt:1 ~elapsed_ms:0.0 (Verr.Ipc K.Timeout) with
  | Resilience.Retry_after wait ->
      Alcotest.(check bool) "first retry waits" true (wait > 0.0)
  | Give_up -> Alcotest.fail "first timeout must retry");
  (match
     Resilience.next_step p prng ~attempt:1 ~elapsed_ms:0.0
       (Verr.Denied Reply.Not_found)
   with
  | Resilience.Give_up -> ()
  | Retry_after _ -> Alcotest.fail "permanent errors never retry");
  (match
     Resilience.next_step p prng ~attempt:(p.Resilience.max_retries + 1)
       ~elapsed_ms:0.0 (Verr.Ipc K.Timeout)
   with
  | Resilience.Give_up -> ()
  | Retry_after _ -> Alcotest.fail "retry budget must bound the loop");
  (match
     Resilience.next_step p prng ~attempt:1
       ~elapsed_ms:(p.Resilience.deadline_ms -. 1.0) (Verr.Ipc K.Timeout)
   with
  | Resilience.Give_up -> ()
  | Retry_after _ -> Alcotest.fail "deadline must bound the loop");
  (* Deadline edge: a retry whose backoff fits the raw deadline but
     leaves less than min_residual_ms of budget to actually run in must
     not fire — it would burn an attempt on an already-doomed try. A
     4ms Busy hint jitters into [4, 6), and min_residual here is
     max 1 (min 50 (1% of 1000)) = 10ms, so at elapsed 988 every draw
     lands in [992, 994): under the 1000ms deadline, yet doomed. *)
  let edge =
    {
      p with
      Resilience.deadline_ms = 1000.0;
      Resilience.base_backoff_ms = 50.0;
    }
  in
  Alcotest.(check (float 1e-9))
    "min residual budget" 10.0
    (Resilience.min_residual_ms edge);
  let hinted = Verr.Busy { retry_after_ms = 4.0 } in
  for _ = 1 to 25 do
    (match Resilience.next_step edge prng ~attempt:1 ~elapsed_ms:988.0 hinted with
    | Resilience.Give_up -> ()
    | Retry_after w ->
        Alcotest.failf "doomed retry fired %.2fms before the deadline"
          (edge.Resilience.deadline_ms -. 988.0 -. w));
    match Resilience.next_step edge prng ~attempt:1 ~elapsed_ms:980.0 hinted with
    | Resilience.Retry_after _ -> ()
    | Give_up -> Alcotest.fail "a retry with residual budget must fire"
  done;
  (match Resilience.give_up ~attempts:5 (Verr.Ipc K.Timeout) with
  | Verr.Unavailable { attempts = 5; _ } -> ()
  | e -> Alcotest.failf "expected Unavailable, got %a" Verr.pp e);
  (match Resilience.give_up ~attempts:5 (Verr.Denied Reply.No_permission) with
  | Verr.Denied Reply.No_permission -> ()
  | e -> Alcotest.failf "permanent error must pass through, got %a" Verr.pp e)

(* --- failover integration --- *)

(* A logical binding ([storage]) re-resolves to the successor server
   after a crash/restart: the restarted incarnation registers under a
   fresh pid and GetPid finds it. *)
let test_logical_binding_failover () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let resolved = ref None in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         Runtime.set_resilience env ~seed:5 ();
         ok_exn "write before crash"
           (Runtime.write_file env "[storage]tmp/fo.txt" (Bytes.of_string "v1"));
         let old_pid = File_server.pid (Scenario.file_server t 0) in
         let fs_host =
           Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0))
         in
         K.crash_host fs_host;
         K.restart_host fs_host;
         let fs' = File_server.restart_from (Scenario.file_server t 0) fs_host in
         ok_exn "write after restart"
           (Runtime.write_file env "[storage]tmp/fo.txt" (Bytes.of_string "v2"));
         let spec = ok_exn "resolve" (Runtime.resolve env "[storage]") in
         resolved := Some (spec, File_server.pid fs', old_pid)));
  Scenario.run t;
  match !resolved with
  | None -> Alcotest.fail "client did not complete"
  | Some (spec, successor, old_pid) ->
      Alcotest.(check bool) "binding moved off the dead pid" false
        (Pid.equal spec.Context.server old_pid);
      Alcotest.(check bool) "binding names the successor" true
        (Pid.equal spec.Context.server successor)

(* A pinned current context (change_context "[home]") fails over too:
   the retry loop re-resolves it by name, so relative names keep
   working after the implementing server restarts. *)
let test_pinned_context_rebind () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         Runtime.set_resilience env ~seed:6 ();
         ignore (ok_exn "chdir" (Runtime.change_context env "[home]"));
         ok_exn "write before"
           (Runtime.write_file env "before.txt" (Bytes.of_string "a"));
         let fs_host =
           Option.get (K.host_of_addr t.Scenario.domain (Scenario.fs_addr 0))
         in
         K.crash_host fs_host;
         K.restart_host fs_host;
         ignore (File_server.restart_from (Scenario.file_server t 0) fs_host);
         (* The pinned context still holds the dead incarnation's pid;
            only re-resolution by name can heal it. *)
         ok_exn "write after restart"
           (Runtime.write_file env "after.txt" (Bytes.of_string "b"));
         Alcotest.(check string) "readable via rebound context" "b"
           (Bytes.to_string (ok_exn "read" (Runtime.read_file env "after.txt")));
         let stats = Runtime.resilience_stats env in
         Alcotest.(check bool) "took at least one retry" true
           (stats.Runtime.retries >= 1);
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed

(* A transaction submitted locally and forwarded to a remote host has
   no client-side retransmission; the kernel's forward recovery must
   keep it alive across an outage of the forwarded leg rather than
   letting the sender block forever (the engine would go quiescent with
   the client still parked). *)
let test_forward_recovery_across_partition () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  Ethernet.partition t.Scenario.net (Scenario.ws_addr 0) (Scenario.fs_addr 0);
  Vsim.Engine.schedule ~delay:400.0 t.Scenario.engine (fun () ->
      Ethernet.heal t.Scenario.net (Scenario.ws_addr 0) (Scenario.fs_addr 0));
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         (* No resilience policy: the recovery under test is the
            kernel's, not the retry loop's. *)
         ok_exn "write across partition"
           (Runtime.write_file env "[fs0]tmp/fwd.txt" (Bytes.of_string "late"));
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed;
  Alcotest.(check bool) "completion waited for a recovery probe" true
    (Vsim.Engine.now t.Scenario.engine >= 500.0)

(* --- network loss validation (satellite) --- *)

let test_loss_probability_validated () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  Ethernet.set_loss_probability t.Scenario.net 0.25;
  Alcotest.(check (float 0.0)) "loss stored" 0.25
    (Ethernet.loss_probability t.Scenario.net);
  (match Ethernet.set_loss_probability t.Scenario.net 1.5 with
  | () -> Alcotest.fail "out-of-range loss accepted"
  | exception Invalid_argument _ -> ());
  (match Ethernet.set_loss_probability t.Scenario.net (-0.1) with
  | () -> Alcotest.fail "negative loss accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "rejected values leave loss unchanged" 0.25
    (Ethernet.loss_probability t.Scenario.net)

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
        Alcotest.test_case "plan converges by its horizon" `Quick
          test_plan_converges;
        Alcotest.test_case "combinators pair fault and recovery" `Quick
          test_plan_combinators;
        Alcotest.test_case "retryable classification" `Quick
          test_retryable_classification;
        Alcotest.test_case "backoff deterministic and bounded" `Quick
          test_backoff_deterministic_and_bounded;
        Alcotest.test_case "next_step and give_up bounds" `Quick
          test_next_step_and_give_up;
        Alcotest.test_case "logical binding fails over to successor" `Quick
          test_logical_binding_failover;
        Alcotest.test_case "pinned context rebinds on retry" `Quick
          test_pinned_context_rebind;
        Alcotest.test_case "forward recovery across partition" `Quick
          test_forward_recovery_across_partition;
        Alcotest.test_case "loss probability validated" `Quick
          test_loss_probability_validated;
      ] );
  ]
