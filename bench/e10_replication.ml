(* E10 — replication: availability and tail latency vs replication
   factor (no paper figure; this repo's replicated-name-services
   extension).

   The paper's service registration leans on broadcast GetPid and
   process groups precisely so a service can be implemented by several
   servers. E10 measures what that buys: a replicated directory service
   ([Vservices.Replica] — N file servers in one process group behind one
   logical service id, read-one via the kernel balancer, write-all via
   the coordinating prefix server) is run under the E9 fault plan at
   replication factors 1, 2 and 3, with a naming-op workload on three
   workstations whose clients carry a deliberately tight resilience
   deadline (1.5 s — shorter than the guaranteed 2.5 s crash episode, so
   an unreplicated outage is client-visible by construction).

   Reported per factor: client-visible unavailability windows, p50/p99
   operation latency, failover count, write amplification (IPC
   transactions per replicated write; read-one/write-all predicts
   N + 1), and the replica-divergence + convergence invariants. The
   factor-3 run is executed twice and must record identical JSON: the
   whole protocol stack is seed-deterministic. *)

module Scenario = Vworkload.Scenario
module Tables = Vworkload.Tables
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Replica = Vservices.Replica
module Fs = Vservices.Fs
module Kernel = Vkernel.Kernel
module Plan = Vfault.Plan
module Injector = Vfault.Injector
module Invariant = Vfault.Invariant
module Series = Vsim.Stats.Series
module Json = Vobs.Json

let seed = 1010
let plan_seed = 909
let users = 3
let duration_ms = 60_000.0
let amp_writes = 20

(* Tighter than [Vio.Resilience.default]: gives up well inside the
   guaranteed 2.5 s crash episode, so with no replica to fail over to
   the outage is client-visible. *)
let policy =
  {
    Vio.Resilience.max_retries = 5;
    base_backoff_ms = 25.0;
    max_backoff_ms = 300.0;
    deadline_ms = 1_500.0;
  }

(* The E9 fault plan, identical across factors so the comparison is
   fair: seeded episodes over the two replicable file-server hosts plus
   the guaranteed 2.5 s crash of fs0 at t=20 s. *)
let fault_plan () =
  let generated =
    Plan.generate ~seed:plan_seed ~duration_ms ~mean_gap_ms:6_000.0
      ~crashable:[ Scenario.fs_addr 0; Scenario.fs_addr 1 ]
      ~partitionable:
        [
          Scenario.ws_addr 0;
          Scenario.ws_addr 1;
          Scenario.ws_addr 2;
          Scenario.printer_addr;
          Scenario.mail_addr;
        ]
      ~slowable:[ Scenario.fs_addr 0; Scenario.fs_addr 1; Scenario.printer_addr ]
      ()
  in
  Plan.of_events ~seed:plan_seed
    (generated.Plan.events
    @ Plan.crash_restart ~addr:(Scenario.fs_addr 0) ~at:20_000.0
        ~downtime_ms:2_500.0)

type factor_result = {
  factor : int;
  operations : int;
  failed_ops : int;
  windows : int;
  unavailable_total_ms : float;
  p50 : float;
  p99 : float;
  failovers : int;
  retries : int;
  unavailable : int;
  write_amp : float;
  violations : Invariant.violation list;
  impacts : Vobs.Attribution.impact list;
}

let run_factor factor =
  let t = Scenario.build ~workstations:users ~file_servers:3 ~seed () in
  (* Flight recorder on (bookkeeping only; timings are unchanged): the
     attribution pass joins its client-retry events against the applied
     fault windows. *)
  Chaos_report.arm t;
  let domain = Scenario.(t.domain) in
  let rset = Scenario.install_replicas t ~factor in
  (* Identical initial state on every member: the shared directory gets
     the same inode everywhere, so context ids line up across members. *)
  List.iter
    (fun (_, fs) ->
      match
        Fs.mkdir (File_server.fs fs) ~dir:Fs.root_ino ~owner:"bench" "shared"
      with
      | Ok (_ : int) -> ()
      | Error code -> failwith (Fmt.str "E10 setup: %a" Vnaming.Reply.pp code))
    (Replica.members rset);
  (* Heal-time convergence: a member partitioned from a coordinating
     workstation missed that coordinator's write fan-outs; replaying
     the group log on heal brings it back in step. *)
  let heal _ _ = Replica.sync rset in
  let inj =
    Injector.install
      ~on_restart:(Scenario.restart_file_server ~replicas:rset t)
      ~on_heal:heal t (fault_plan ())
  in
  let ops = ref [] in
  let latency = Series.create "e10-latency" in
  for ws = 0 to users - 1 do
    ignore
      (Scenario.spawn_client t ~ws
         ~name:(Fmt.str "replica-user%d" ws)
         (fun _self env ->
           Runtime.set_resilience env ~policy ~seed:(40 + ws) ();
           let eng = Runtime.engine env in
           let timed = Chaos_report.timed eng ~ops ~latency in
           (* Pin the replicated context once: relative reads then go
              straight to one member and must fail over by rebind when
              it crashes (the failover:n path). *)
           ignore (Runtime.change_context env "[rstore]shared");
           let rec loop i =
             if Vsim.Engine.now eng < duration_ms then begin
               let file = Fmt.str "w%d_%04d" ws i in
               timed (fun () -> Runtime.create env ("[rstore]shared/" ^ file));
               timed (fun () ->
                   Result.map
                     (fun (_ : Vnaming.Descriptor.t) -> ())
                     (Runtime.query env file));
               timed (fun () ->
                   Result.map
                     (fun (_ : Vnaming.Context.spec) -> ())
                     (Runtime.resolve env "[rstore]shared"));
               if i mod 4 = 3 then
                 timed (fun () ->
                     Runtime.remove env
                       (Fmt.str "[rstore]shared/w%d_%04d" ws (i - 2)));
               Vsim.Proc.delay eng 400.0;
               loop (i + 1)
             end
           in
           loop 0))
  done;
  Scenario.run t;
  ignore (Injector.timeline inj);
  (* Write amplification, measured post-heal on an otherwise idle
     installation: IPC transactions per replicated create. Read-one /
     write-all predicts factor + 1 (one client->coordinator transaction
     plus one per member). *)
  let txn0 = Kernel.ipc_transaction_count domain in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"amp" (fun _self env ->
         for k = 0 to amp_writes - 1 do
           ignore (Runtime.create env (Fmt.str "[rstore]shared/amp_%02d" k))
         done));
  Scenario.run t;
  let write_amp =
    float_of_int (Kernel.ipc_transaction_count domain - txn0)
    /. float_of_int amp_writes
  in
  let violations =
    Invariant.replica_divergence t
      ~members:(List.map snd (Replica.members rset))
      ~names:
        [ "shared"; "shared/w0_0000"; "shared/w1_0003"; "shared/amp_00" ]
    @ Invariant.convergence t ~names:[ "[rstore]" ]
  in
  let ops =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !ops)
  in
  let failed_ops =
    List.length (List.filter (fun (_, _, ok) -> not ok) ops)
  in
  let windows = Chaos_report.unavailability_windows ops in
  let impacts =
    Chaos_report.attribution t inj ~horizon_ms:duration_ms ~ops ~windows
  in
  ignore
    (Chaos_report.flight_dump t ~file:"flight-e10.json" ~violations);
  let s = Series.summarize latency in
  {
    factor;
    operations = List.length ops;
    failed_ops;
    windows = List.length windows;
    unavailable_total_ms =
      List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 windows;
    p50 = s.Series.p50;
    p99 = s.Series.p99;
    failovers = Chaos_report.sum_metric t "failover";
    retries = Chaos_report.sum_metric t "retry";
    unavailable = Chaos_report.sum_metric t "unavailable";
    write_amp;
    violations;
    impacts;
  }

let result_json r =
  Json.Obj
    [
      ("factor", Json.Int r.factor);
      ("operations", Json.Int r.operations);
      ("failed", Json.Int r.failed_ops);
      ("unavailability_windows", Json.Int r.windows);
      ("unavailability_total_ms", Json.Float r.unavailable_total_ms);
      ("latency_p50_ms", Json.Float r.p50);
      ("latency_p99_ms", Json.Float r.p99);
      ("failovers", Json.Int r.failovers);
      ("retries", Json.Int r.retries);
      ("unavailable", Json.Int r.unavailable);
      ("write_amplification", Json.Float r.write_amp);
      ("invariant_violations", Invariant.to_json r.violations);
      ("attribution", Vobs.Attribution.to_json r.impacts);
    ]

let run () =
  Tables.print_title
    "E10: replication — availability and tail latency vs replication factor";
  Tables.note_meta ~seed ~horizon_ms:duration_ms ();
  let results = List.map run_factor [ 1; 2; 3 ] in
  (* Determinism: the factor-3 run repeated must be bit-identical. *)
  let repeat = run_factor 3 in
  let deterministic =
    Json.to_string (result_json (List.nth results 2))
    = Json.to_string (result_json repeat)
  in
  Tables.print_section
    (Fmt.str
       "Naming-op workload, %d users, %.0f s, E9 fault plan (seed %d),\n\
        resilience deadline %.0f ms < 2500 ms crash episode"
       users (duration_ms /. 1000.0) plan_seed policy.Vio.Resilience.deadline_ms);
  Tables.print_table
    ~header:
      [
        "factor";
        "operations";
        "failed";
        "windows";
        "unavailable (ms)";
        "p50 (ms)";
        "p99 (ms)";
        "failovers";
        "write amp";
        "violations";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.factor;
           string_of_int r.operations;
           string_of_int r.failed_ops;
           string_of_int r.windows;
           Tables.ms r.unavailable_total_ms;
           Tables.ms r.p50;
           Tables.ms r.p99;
           string_of_int r.failovers;
           Fmt.str "%.2f" r.write_amp;
           string_of_int (List.length r.violations);
         ])
       results);
  List.iter
    (fun r ->
      List.iter
        (fun v -> Fmt.pr "  factor %d: %a@." r.factor Invariant.pp_violation v)
        r.violations)
    results;
  List.iter
    (fun r ->
      Tables.print_section
        (Fmt.str "Chaos attribution, factor %d (applied fault -> client impact)"
           r.factor);
      Fmt.pr "@[%a@]@." Vobs.Attribution.pp r.impacts)
    results;
  Fmt.pr "@.factor-3 repeat bit-identical: %b@." deterministic;
  Fmt.pr
    "@.write-all costs ~(N+1) transactions per write; in exchange the\n\
     guaranteed 2.5 s crash becomes invisible to clients once any replica\n\
     survives: GetPid re-balances reads and the coordinator skips the dead\n\
     member, so unavailability windows collapse as the factor grows@.";
  Tables.record
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("plan_seed", Json.Int plan_seed);
         ("factors", Json.List (List.map result_json results));
         ("deterministic_repeat", Json.Bool deterministic);
       ])
