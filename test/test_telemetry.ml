(* Tests for the scale-telemetry layer: deterministic head sampling,
   the grouped metrics store's cardinality bound and its one series
   across a telemetry cycle, histogram overflow and exemplar
   reservoirs, time-series downsampling and caps, eventlog drop
   accounting, and the deferred-scrape counter flush. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module C = Vnet.Calibration
module H = Vobs.Histogram
module M = Vobs.Metrics
module Ts = Vobs.Timeseries

let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

(* --- head sampling: deterministic, seeded, workload-independent --- *)

(* Two hubs configured identically must make the identical keep/refuse
   decision on every trace — the sampler draws from a private seeded
   stream, so nothing about the host or the workload can perturb it. *)
let prop_sampling_deterministic =
  QCheck.Test.make
    ~name:"head sampling is a pure function of (seed, every, draw index)"
    ~count:50
    QCheck.(pair (int_range 1 128) (int_range 0 10_000))
    (fun (every, seed) ->
      let mk () =
        let hub = Vobs.Hub.create ~tracing:true () in
        Vobs.Hub.set_head_sampling hub ~every ~seed;
        hub
      in
      let a = mk () and b = mk () in
      let draws = 300 in
      for i = 1 to draws do
        let ca = Vobs.Hub.start_trace a ~now:(float_of_int i) in
        (* Different [now] on purpose: the decision must not read it. *)
        let cb = Vobs.Hub.start_trace b ~now:(float_of_int (i * 7)) in
        if ca.Vobs.Span.trace > 0 <> (cb.Vobs.Span.trace > 0) then
          QCheck.Test.fail_reportf "draw %d diverged (every=%d seed=%d)" i
            every seed
      done;
      Vobs.Hub.sampled_out a = Vobs.Hub.sampled_out b)

let test_sampling_rate () =
  let hub = Vobs.Hub.create ~tracing:true () in
  Vobs.Hub.set_head_sampling hub ~every:4 ~seed:42;
  let draws = 10_000 in
  let kept = ref 0 in
  for _ = 1 to draws do
    if (Vobs.Hub.start_trace hub ~now:0.0).Vobs.Span.trace > 0 then incr kept
  done;
  Alcotest.(check int)
    "kept + refused = draws" draws
    (!kept + Vobs.Hub.sampled_out hub);
  (* 1-in-4 over 10k draws: a binomial this size stays well inside
     [1/8, 1/2] — the check catches an inverted or constant decision,
     not distribution shape. *)
  if !kept < draws / 8 || !kept > draws / 2 then
    Alcotest.failf "1-in-4 sampling kept %d of %d" !kept draws;
  let all = Vobs.Hub.create ~tracing:true () in
  Vobs.Hub.set_head_sampling all ~every:1 ~seed:42;
  for _ = 1 to 100 do
    ignore (Vobs.Hub.start_trace all ~now:0.0)
  done;
  Alcotest.(check int) "every:1 refuses nothing" 0 (Vobs.Hub.sampled_out all)

(* --- the grouped store: cardinality bound --- *)

(* Group leaves in fours, like hosts under an edge switch. *)
let group_of leaf =
  match int_of_string_opt leaf with
  | Some n -> Some (Printf.sprintf "edge%d" (n / 4))
  | None -> None

let test_rollup_cap_and_drop_accounting () =
  let m = M.create () in
  M.set_groups m (Some group_of);
  let leaves = M.leaf_cap + 42 in
  for leaf = 0 to leaves - 1 do
    M.incr m ~host:(string_of_int leaf) ~server:"kernel" ~op:"send"
  done;
  Alcotest.(check int) "leaf keys saturate at the cap" M.leaf_cap
    (List.length (M.counters m));
  Alcotest.(check int) "refused leaf observations counted" 42
    (M.keys_dropped m);
  let total level =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (M.counters ~level m)
  in
  Alcotest.(check int) "fleet total stays exact past the cap" leaves
    (total M.Fleet);
  Alcotest.(check int) "group totals stay exact past the cap" leaves
    (total M.Group)

(* --- histogram: overflow bucket --- *)

let test_histogram_overflow () =
  let h = H.create ~bounds:[| 1.0; 2.0 |] () in
  List.iter (H.observe h) [ 0.5; 1.5; 10.0; 20.0 ];
  Alcotest.(check (array int))
    "raw counts, overflow last"
    [| 1; 1; 2 |]
    (H.raw_counts h);
  (match List.rev (H.buckets h) with
  | (_, upper, n) :: _ ->
      Alcotest.(check int) "overflow row count" 2 n;
      Alcotest.(check (float 1e-9)) "overflow upper edge = max" 20.0 upper
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check (float 1e-9)) "q1.0 = max" 20.0 (H.quantile h 1.0)

let test_exemplars_deterministic_and_bucketed () =
  let run () =
    let h = H.create ~bounds:[| 1.0; 2.0 |] ~exemplar_slots:2 () in
    let rand = Vsim.Prng.create ~seed:77 in
    for trace = 1 to 10 do
      H.observe ~trace ~rand h 0.5
    done;
    h
  in
  let a = run () in
  let ex = H.exemplars a 0 in
  if List.length ex < 1 || List.length ex > 2 then
    Alcotest.failf "reservoir held %d exemplars, slots 2" (List.length ex);
  List.iter
    (fun e ->
      if e.H.trace < 1 || e.H.trace > 10 then
        Alcotest.failf "exemplar trace %d never observed" e.H.trace;
      Alcotest.(check (float 1e-9)) "exemplar value" 0.5 e.H.value)
    ex;
  Alcotest.(check (list int))
    "only the target bucket holds exemplars" []
    (List.map (fun e -> e.H.trace) (H.exemplars a 1) @ List.map (fun e -> e.H.trace) (H.exemplars a 2));
  let b = run () in
  Alcotest.(check (list int))
    "seeded reservoir is deterministic"
    (List.map (fun e -> e.H.trace) (H.exemplars a 0))
    (List.map (fun e -> e.H.trace) (H.exemplars b 0))

(* --- time series: downsampling and the series cap --- *)

let test_timeseries_downsample () =
  let ts = Ts.create ~capacity:4 ~bucket_ms:1.0 () in
  for i = 0 to 31 do
    Ts.sample ts "q" Ts.Gauge ~now:(float_of_int i) (float_of_int i)
  done;
  let pts = Ts.points ts "q" in
  if List.length pts > 4 then
    Alcotest.failf "capacity 4 holds %d points" (List.length pts);
  (match Ts.bucket_ms ts "q" with
  | Some w when w >= 8.0 -> ()
  | Some w -> Alcotest.failf "bucket width %.1f never doubled to cover 32ms" w
  | None -> Alcotest.fail "series vanished");
  (match List.rev pts with
  | (_, v) :: _ ->
      Alcotest.(check (float 1e-9)) "gauge keeps the window peak" 31.0 v
  | [] -> Alcotest.fail "no points");
  Alcotest.(check bool) "sparkline renders" true (Ts.sparkline ts "q" <> "")

let test_timeseries_series_cap () =
  let ts = Ts.create ~max_series:2 () in
  List.iter
    (fun name -> Ts.sample ts name Ts.Counter ~now:0.0 1.0)
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "cap admits two" 2 (Ts.series_count ts);
  Alcotest.(check int) "third refusal counted" 1 (Ts.series_dropped ts);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "refused series holds nothing" [] (Ts.points ts "c")

(* --- eventlog: bounded store surfaces its losses --- *)

let test_eventlog_drop_hook () =
  let log = Vobs.Eventlog.create ~capacity:4 () in
  Vobs.Eventlog.set_enabled log true;
  let hooked = ref 0 in
  Vobs.Eventlog.set_on_drop log (fun n -> hooked := !hooked + n);
  for i = 1 to 10 do
    Vobs.Eventlog.record log ~at:(float_of_int i) ~cat:Vobs.Eventlog.Kernel
      ~host:"h" "e"
  done;
  Alcotest.(check int) "drop hook saw every trimmed event"
    (Vobs.Eventlog.dropped log) !hooked;
  if Vobs.Eventlog.dropped log = 0 then
    Alcotest.fail "capacity 4 never trimmed under 10 records";
  Alcotest.(check int)
    "stored + dropped = recorded" 10
    (Vobs.Eventlog.count log + Vobs.Eventlog.dropped log)

(* --- counts kept in place: every read scrapes them in exactly once --- *)

let test_scrape_lands_counts_once () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  let domain = K.create_domain ~cost eng net in
  let hub = Vobs.Hub.create () in
  K.set_obs domain hub;
  let server_host = K.boot_host domain ~name:"srv" 1 in
  let client_host = K.boot_host domain ~name:"cli" 2 in
  let server =
    K.spawn server_host ~name:"echo" (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          ignore (K.reply self ~to_:sender msg);
          loop ()
        in
        loop ())
  in
  ignore
    (K.spawn client_host ~name:"client" (fun self ->
         for _ = 1 to 3 do
           match K.send self server "ping" with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "send failed: %a" K.pp_error e
         done));
  Vsim.Engine.run eng;
  let m = Vobs.Hub.metrics hub in
  let sends () =
    Vobs.Metrics.counter_value m ~host:"cli" ~server:"kernel" ~op:"send"
  in
  (* The IPC counters accumulate on the host record; reading the
     registry scrapes them in. *)
  Alcotest.(check int) "a read lands the send count" 3 (sends ());
  Alcotest.(check int) "server receives land too" 3
    (Vobs.Metrics.counter_value m ~host:"srv" ~server:"kernel" ~op:"receive");
  Alcotest.(check int) "a second read adds nothing" 3 (sends ())

(* --- one store across a telemetry cycle --- *)

(* Operations finished before, during and after telemetry land in one
   series: the leaf histograms count every operation, as the SLO does,
   and a counter bumped in each phase reads the sum. While telemetry
   is on, the fleet level takes the same recordings too, its
   histograms keeping trace exemplars. *)
let test_telemetry_cycle_keeps_one_series () =
  let module Scenario = Vworkload.Scenario in
  let module Runtime = Vruntime.Runtime in
  let t = Scenario.build ~workstations:1 ~file_servers:1 ~tracing:true () in
  let hub = t.Scenario.obs and d = t.Scenario.domain in
  let slo = Vobs.Slo.create () in
  Vobs.Hub.set_slo hub (Some slo);
  let m = Vobs.Hub.metrics hub in
  let phase () = M.incr m ~host:"ws0" ~server:"test" ~op:"phase" in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _ env ->
         let read () =
           match Runtime.read_file env "[home]cycle.txt" with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "read: %a" Vio.Verr.pp e
         in
         (match
            Runtime.write_file env "[home]cycle.txt" (Bytes.of_string "x")
          with
         | Ok () -> ()
         | Error e -> Alcotest.failf "write: %a" Vio.Verr.pp e);
         read ();
         phase ();
         K.enable_telemetry d ~interval_ms:50.0;
         for _ = 1 to 3 do
           read ()
         done;
         phase ();
         K.disable_telemetry d;
         read ();
         phase ()));
  Scenario.run t;
  let ops level =
    List.fold_left (fun acc (_, h) -> acc + H.count h) 0 (M.histograms ~level m)
  in
  let slo_ops = (Vobs.Slo.summary slo).Vobs.Slo.ops in
  if slo_ops < 6 then Alcotest.failf "the SLO saw %d operations" slo_ops;
  Alcotest.(check int) "leaf histograms count every operation" slo_ops
    (ops M.Leaf);
  Alcotest.(check int) "a counter bumped in each phase reads the sum" 3
    (M.counter_value m ~host:"ws0" ~server:"test" ~op:"phase");
  Alcotest.(check (list int)) "the fleet took the grouped phase's bump"
    [ 1 ]
    (List.filter_map
       (fun ((k : M.key), n) -> if k.op = "phase" then Some n else None)
       (M.counters ~level:M.Fleet m));
  if ops M.Fleet < 3 then
    Alcotest.failf "the fleet saw %d of the grouped phase's operations"
      (ops M.Fleet);
  Alcotest.(check bool)
    "fleet histograms keep trace exemplars" true
    (List.exists
       (fun (_, h) -> H.all_exemplars h <> [])
       (M.histograms ~level:M.Fleet m))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "telemetry",
      [
      Alcotest.test_case "sampling rate and exhaustive keep" `Quick
        test_sampling_rate;
      Alcotest.test_case "rollup cap + drop accounting" `Quick
        test_rollup_cap_and_drop_accounting;
      Alcotest.test_case "histogram overflow bucket" `Quick
        test_histogram_overflow;
      Alcotest.test_case "exemplar reservoirs" `Quick
        test_exemplars_deterministic_and_bucketed;
      Alcotest.test_case "timeseries downsampling" `Quick
        test_timeseries_downsample;
      Alcotest.test_case "timeseries series cap" `Quick
        test_timeseries_series_cap;
      Alcotest.test_case "eventlog drop hook" `Quick test_eventlog_drop_hook;
      Alcotest.test_case "scrape lands counts once" `Quick
        test_scrape_lands_counts_once;
      Alcotest.test_case "telemetry cycle keeps one series" `Quick
        test_telemetry_cycle_keeps_one_series;
        qcheck prop_sampling_deterministic;
      ] );
  ]
