(* E9 — chaos: the day workload under a scripted fault schedule (no
   paper figure; this repo's robustness extension).

   The paper's model degrades gracefully: crashed servers lose their
   state, clients re-resolve logical bindings via GetPid and carry on.
   E9 exercises that story end to end. A seeded fault plan (host
   crash/restart, partitions, loss bursts, slow hosts — [Vfault.Plan])
   is injected into a running day workload whose clients carry the
   resilience policy, and the run reports:

     Part 1  the chaos soak: applied fault timeline, day totals under
             faults, unavailability windows, recovery latency after
             each restart, retry/rebind counts — then the invariant
             checker (at-most-once side effects via a marker-token
             client, no orphan instances on live file servers,
             post-heal convergence of every logical name) and a
             post-heal probe phase that must succeed 100%.

     Part 2  success rate vs loss probability: the same day at fixed
             loss levels, with the policy absorbing what the kernel's
             retransmission alone cannot.

   Everything is a pure function of the seeds: two runs print (and
   record) byte-identical timelines and metrics. *)

module Scenario = Vworkload.Scenario
module Day = Vworkload.Day
module Tables = Vworkload.Tables
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Ethernet = Vnet.Ethernet
module Plan = Vfault.Plan
module Injector = Vfault.Injector
module Invariant = Vfault.Invariant
module Series = Vsim.Stats.Series
module Json = Vobs.Json

let seed = 909
let users = 3
let duration_ms = 60_000.0

(* E9 is where the flight recorder and the SLO engine run for real.
   The target is set so the scripted chaos plan — whose outages the
   retry policy bounds — stays inside budget, while a genuine
   regression (say, every operation slowing several-fold) burns through
   it and turns the bench gate red: availability 90% and 95% of ops
   under 250 simulated ms, evaluated at the default 2x multi-window
   burn rate. *)
let slo_target =
  { Vobs.Slo.availability = 0.90; latency_ms = 250.0; latency_quantile = 0.95 }

(* The names that must converge post-heal: the standard prefix table's
   logical bindings. Static bindings ([fsN], [terminals]) stay stale
   after a crash by design (the paper's non-goal) and are excluded. *)
let logical_names = [ "[storage]"; "[home]"; "[bin]"; "[printer]"; "[mail]" ]

let marker_file = "chaoslog"

(* --- Part 1: the chaos soak --- *)

(* The marker client: appends a unique token per iteration to a file
   every live storage server carries, recording whether the operation
   reported success. The invariant checker later counts each token in
   the union of the servers' file contents: at-most-once made visible. *)
let spawn_marker t tokens =
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"marker" (fun _self env ->
         Runtime.set_resilience env ~seed:77 ();
         let eng = Runtime.engine env in
         let rec loop i =
           if Vsim.Engine.now eng < duration_ms then begin
             let token = Fmt.str "<tok%04d>" i in
             let ok =
               match
                 Runtime.append_file env
                   ("[storage]" ^ marker_file)
                   (Bytes.of_string token)
               with
               | Ok () -> true
               | Error (_ : Vio.Verr.t) -> false
             in
             tokens := (token, ok) :: !tokens;
             Vsim.Proc.delay eng 750.0;
             loop (i + 1)
           end
         in
         loop 0))

(* Time from each applied restart to the completion of the first
   operation that started after it. *)
let recovery_latencies inj ops =
  let restarts =
    List.filter_map
      (fun (at, label) ->
        if String.length label >= 7 && String.sub label 0 7 = "restart" then
          Some at
        else None)
      (Injector.timeline inj)
  in
  List.filter_map
    (fun at ->
      List.find_map
        (fun (t0, t1, ok) -> if ok && t0 >= at then Some (t1 -. at) else None)
        ops)
    restarts

let run_soak () =
  let ops = ref [] and tokens = ref [] and inj = ref None in
  (* The plan is pure data: built before anything runs, identical for a
     given seed. Partitions avoid file-server hosts so a mid-operation
     cut cannot strand an instance on a live file server (crashed ones
     lose theirs with the crash). *)
  let generated =
    Plan.generate ~seed ~duration_ms ~mean_gap_ms:6_000.0
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
  (* Guarantee the acceptance-critical episode regardless of the draw:
     the file server clients bind [home] to at login crashes mid-day
     and comes back, so pinned contexts must fail over by
     re-resolution. The injector's guards make any overlap with the
     generated episodes compose safely. *)
  let plan =
    Plan.of_events ~seed
      (generated.Plan.events
      @ Plan.crash_restart ~addr:(Scenario.fs_addr 0) ~at:20_000.0
          ~downtime_ms:2_500.0)
  in
  let totals, t =
    Day.run ~users ~duration_ms ~resilience:Vio.Resilience.default
      ~configure:(fun t ->
        (* Arm the flight recorder and the SLO engine before anything
           runs: pure bookkeeping, timings are identical either way. *)
        Chaos_report.arm ~slo:slo_target t;
        (* Every storage server carries the marker file, so an append
           lands wherever [storage] resolves at that moment. *)
        Array.iter
          (fun fs ->
            match
              Fs.create_file (File_server.fs fs) ~dir:Fs.root_ino
                ~owner:"bench" marker_file
            with
            | Ok (_ : int) -> ()
            | Error code ->
                failwith (Fmt.str "E9 marker file: %a" Vnaming.Reply.pp code))
          Scenario.(t.file_servers);
        spawn_marker t tokens;
        inj :=
          Some
            (Injector.install
               ~on_restart:(Scenario.restart_file_server t)
               t plan))
      ~on_op:(fun ~t0 ~t1 outcome ->
        ops := (t0, t1, Result.is_ok outcome) :: !ops)
      ()
  in
  let inj = Option.get !inj in
  let ops =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !ops)
  in

  (* Post-heal phase: fresh probes on every workstation re-bind [home]
     and work; the invariant checker resolves every logical name from
     every workstation and requires a live server behind each. Both run
     in the same simulation extension. *)
  let ph_ops = ref 0 and ph_failures = ref 0 in
  for ws = 0 to users - 1 do
    ignore
      (Scenario.spawn_client t ~ws ~name:(Fmt.str "postheal%d" ws)
         (fun _self env ->
           Runtime.set_resilience env ~seed:(2000 + ws) ();
           let check (outcome : (unit, Vio.Verr.t) result) =
             incr ph_ops;
             if Result.is_error outcome then incr ph_failures
           in
           check
             (Result.map
                (fun (_ : Vnaming.Context.spec) -> ())
                (Runtime.change_context env "[home]"));
           check
             (Runtime.write_file env "postheal.txt"
                (Bytes.of_string "recovered"));
           check
             (Result.map (fun (_ : bytes) -> ())
                (Runtime.read_file env "postheal.txt"))))
  done;
  (* The marker tokens are counted across the union of every live
     storage server's copy of the file (an append may have landed on
     either). Reading file data can hit the simulated disk — after a
     crash dropped a server's buffer cache it always does — so the
     audit runs as a fiber, alongside the probes, in the same
     simulation extension [Invariant.convergence] drives. *)
  let content = ref "" in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"audit" (fun _self _env ->
         content :=
           Array.fold_left
             (fun acc fsrv ->
               let fs = File_server.fs fsrv in
               match Fs.resolve_path fs ("/" ^ marker_file) with
               | Some (Fs.File_entry ino) -> (
                   match Fs.read_file fs ~ino with
                   | Ok bytes -> acc ^ Bytes.to_string bytes
                   | Error (_ : Vnaming.Reply.code) -> acc)
               | _ -> acc)
             ""
             Scenario.(t.file_servers)));
  let convergence = Invariant.convergence t ~names:logical_names in
  let violations =
    Invariant.at_most_once ~tokens:(List.rev !tokens) !content
    @ Invariant.no_orphan_instances
        (Array.to_list Scenario.(t.file_servers))
    @ convergence
  in
  (totals, t, inj, ops, List.length !tokens, violations, !ph_ops, !ph_failures)

(* --- Part 2: success rate vs loss probability --- *)

let loss_sweep () =
  List.map
    (fun p ->
      let totals, _ =
        Day.run ~users:2 ~duration_ms:15_000.0 ~seed:300
          ~resilience:Vio.Resilience.default
          ~configure:(fun t ->
            if p > 0.0 then
              Ethernet.set_loss_probability Scenario.(t.net) p)
          ()
      in
      let ops = Series.count totals.Day.latency in
      let mean = (Series.summarize totals.Day.latency).Series.mean in
      let rate =
        if ops = 0 then 1.0
        else float_of_int (ops - totals.Day.failures) /. float_of_int ops
      in
      (p, ops, mean, totals.Day.failures, totals.Day.retried_ok, rate))
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ]

(* --- the report --- *)

let run () =
  Tables.print_title "E9: chaos — the day workload under a scripted fault schedule";
  Tables.note_meta ~seed ~horizon_ms:duration_ms ();
  let totals, t, inj, ops, token_count, violations, ph_ops, ph_failures =
    run_soak ()
  in

  Tables.print_section
    (Fmt.str "Fault timeline (plan seed %d, %d events; skipped = overlap-guarded)"
       seed
       (List.length (Injector.plan inj).Plan.events));
  List.iter
    (fun (at, label) -> Fmt.pr "  t=%7.0f ms  %s@." at label)
    (Injector.timeline inj);

  Tables.print_section "Day totals under faults";
  Fmt.pr "@[%a@]@." Day.pp_totals totals;
  let retries = Chaos_report.sum_metric t "retry" in
  let rebinds = Chaos_report.sum_metric t "rebind" in
  let unavailable = Chaos_report.sum_metric t "unavailable" in
  Fmt.pr
    "resilience: %d retries, %d context rebinds, %d give-ups (Unavailable),@ \
     %d marker appends@."
    retries rebinds unavailable token_count;

  Tables.print_section "Availability";
  let windows = Chaos_report.unavailability_windows ops in
  let win_total =
    List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0.0 windows
  in
  let win_max =
    List.fold_left (fun acc (s, e) -> Float.max acc (e -. s)) 0.0 windows
  in
  Tables.print_table
    ~header:[ "measure"; "value" ]
    [
      [ "operations"; string_of_int (List.length ops) ];
      [ "failed operations"; string_of_int totals.Day.failures ];
      [ "unavailability windows"; string_of_int (List.length windows) ];
      [ "unavailable time (ms)"; Tables.ms win_total ];
      [ "longest window (ms)"; Tables.ms win_max ];
    ];

  let recovery = recovery_latencies inj ops in
  let recovery_series = Series.create "recovery-latency" in
  List.iter (Series.add recovery_series) recovery;
  (match recovery with
  | [] -> Fmt.pr "@.no restarts in this plan@."
  | _ ->
      let s = Series.summarize recovery_series in
      Tables.print_section
        "Recovery latency (restart -> first completed operation started after it)";
      Tables.print_table
        ~header:[ "restarts"; "p50 (ms)"; "p99 (ms)"; "max (ms)" ]
        [
          [
            string_of_int (List.length recovery);
            Tables.ms s.Series.p50;
            Tables.ms s.Series.p99;
            Tables.ms s.Series.max;
          ];
        ]);

  Tables.print_section "Success rate vs loss probability (15 s day, 2 users)";
  let sweep = loss_sweep () in
  Tables.print_table
    ~header:
      [ "loss"; "operations"; "mean op (ms)"; "failed"; "retried ok"; "success rate" ]
    (List.map
       (fun (p, ops, mean, failed, retried_ok, rate) ->
         [
           Fmt.str "%.2f" p;
           string_of_int ops;
           Tables.ms mean;
           string_of_int failed;
           string_of_int retried_ok;
           Fmt.str "%.1f%%" (rate *. 100.0);
         ])
       sweep);

  Tables.print_section "SLO (availability & latency, multi-window burn rate)";
  let slo =
    match Chaos_report.slo_summary t with
    | Some s -> s
    | None -> failwith "E9: SLO engine was not armed"
  in
  Fmt.pr "@[%a@]@." Vobs.Slo.pp_summary slo;

  Tables.print_section "Chaos attribution (applied fault -> client impact)";
  let impacts =
    Chaos_report.attribution t inj ~horizon_ms:duration_ms ~ops ~windows
  in
  Fmt.pr "@[%a@]@." Vobs.Attribution.pp impacts;
  let recorder = Vobs.Hub.events Scenario.(t.obs) in
  Fmt.pr "flight recorder: %d event(s) held, %d dropped, %d span(s) evicted@."
    (Vobs.Eventlog.count recorder)
    (Vobs.Eventlog.dropped recorder)
    (Vobs.Hub.spans_dropped Scenario.(t.obs));

  Tables.print_section "Invariants";
  Fmt.pr "post-heal probes: %d operations, %d failures@." ph_ops ph_failures;
  (match violations with
  | [] ->
      Fmt.pr
        "at-most-once, no-orphan-instances, convergence: all hold (0 violations)@."
  | vs ->
      Fmt.pr "%d VIOLATION%s:@." (List.length vs)
        (if List.length vs = 1 then "" else "S");
      List.iter (fun v -> Fmt.pr "  %a@." Invariant.pp_violation v) vs);
  Fmt.pr
    "@.crashed file servers came back as successors; logical bindings\n\
     re-resolved to them via GetPid, pinned home contexts failed over by\n\
     re-resolution, and the retry policy bounded every outage a client saw@.";

  (* A run that ended badly leaves the evidence behind: CI uploads this
     dump as an artifact when the gate goes red. *)
  ignore
    (Chaos_report.flight_dump t ~file:"flight-e9.json" ~violations
       ~breaches:slo.Vobs.Slo.breach_list);

  (* The machine-readable artifact: CI replays the run and fails on any
     invariant violation; two same-seed runs must record this
     identically. *)
  Tables.record
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("plan", Plan.to_json (Injector.plan inj));
         ( "applied_timeline",
           Json.List
             (List.map
                (fun (at, label) ->
                  Json.Obj
                    [ ("at_ms", Json.Float at); ("event", Json.String label) ])
                (Injector.timeline inj)) );
         ("operations", Json.Int (List.length ops));
         ("failures", Json.Int totals.Day.failures);
         ("ipc_failures", Json.Int totals.Day.ipc_failures);
         ("denied", Json.Int totals.Day.denied);
         ("retried_ok", Json.Int totals.Day.retried_ok);
         ("retries", Json.Int retries);
         ("rebinds", Json.Int rebinds);
         ("unavailable", Json.Int unavailable);
         ("unavailability_windows", Json.Int (List.length windows));
         ("unavailability_total_ms", Json.Float win_total);
         ("unavailability_max_ms", Json.Float win_max);
         ( "recovery_latency_ms",
           match recovery with
           | [] -> Json.Null
           | _ ->
               let s = Series.summarize recovery_series in
               Json.Obj
                 [
                   ("n", Json.Int (List.length recovery));
                   ("p50", Json.Float s.Series.p50);
                   ("p99", Json.Float s.Series.p99);
                 ] );
         ("post_heal_ops", Json.Int ph_ops);
         ("post_heal_failures", Json.Int ph_failures);
         ( "loss_sweep",
           Json.List
             (List.map
                (fun (p, ops, mean, failed, retried_ok, rate) ->
                  Json.Obj
                    [
                      ("loss", Json.Float p);
                      ("operations", Json.Int ops);
                      ("mean_op_ms", Json.Float mean);
                      ("failed", Json.Int failed);
                      ("retried_ok", Json.Int retried_ok);
                      ("success_rate", Json.Float rate);
                    ])
                sweep) );
         ("invariant_violations", Invariant.to_json violations);
         ("slo", Vobs.Slo.summary_to_json slo);
         ("attribution", Vobs.Attribution.to_json impacts);
       ])
