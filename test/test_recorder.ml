(* Tests for the second-generation observability layer: the flight
   recorder's bounded event log, the windowed SLO engine's burn-rate
   math, the chaos-attribution join, tail-based span retention in the
   hub, the injector's applied-fault windows, and the JSON parser's
   failure paths (the recorder dump must be re-readable, so the parser
   must reject what the encoder would never write). *)

module Scenario = Vworkload.Scenario
module Eventlog = Vobs.Eventlog
module Slo = Vobs.Slo
module Attribution = Vobs.Attribution
module Hub = Vobs.Hub
module Span = Vobs.Span
module Json = Vobs.Json
module Plan = Vfault.Plan
module Injector = Vfault.Injector

(* --- JSON parser failure paths --- *)

let test_json_parse_failures () =
  let must_fail what input =
    match Json.parse input with
    | Ok j -> Alcotest.failf "%s: %S parsed to %s" what input (Json.to_string j)
    | Error _ -> ()
  in
  (* Truncated input. *)
  must_fail "truncated object" {|{"a":|};
  must_fail "truncated object no value" {|{"a"|};
  must_fail "truncated list" "[1,2";
  must_fail "truncated string" {|"abc|};
  must_fail "truncated keyword" "tru";
  must_fail "empty input" "";
  must_fail "lone minus" "-";
  (* Bad escapes. *)
  must_fail "unknown escape" {|"\x"|};
  must_fail "unterminated escape" {|"\|};
  must_fail "truncated unicode escape" {|"\u12"|};
  must_fail "non-hex unicode escape" {|"\u12zz"|};
  (* Trailing garbage: a valid document followed by more input. *)
  must_fail "trailing garbage after object" "{} x";
  must_fail "trailing number" "1 2";
  must_fail "two documents" "[1][2]";
  (* The valid forms next door still parse. *)
  (match Json.parse {|"A"|} with
  | Ok (Json.String "A") -> ()
  | Ok j -> Alcotest.failf "\\u0041 parsed to %s" (Json.to_string j)
  | Error msg -> Alcotest.failf "\\u0041 rejected: %s" msg);
  match Json.parse "{} " with
  | Ok (Json.Obj []) -> ()
  | Ok j -> Alcotest.failf "empty object parsed to %s" (Json.to_string j)
  | Error msg -> Alcotest.failf "trailing spaces rejected: %s" msg

(* --- the bounded event log --- *)

let test_eventlog_bounds () =
  let log = Eventlog.create ~capacity:10 () in
  (* Disabled: recording is a no-op. *)
  Eventlog.record log ~at:1.0 ~cat:Eventlog.Kernel ~host:"h" "ignored";
  Alcotest.(check int) "disabled records nothing" 0 (Eventlog.count log);
  Eventlog.set_enabled log true;
  for i = 1 to 25 do
    Eventlog.record log ~at:(float_of_int i) ~cat:Eventlog.Kernel ~host:"h"
      ~trace:i
      (Fmt.str "e%d" i)
  done;
  let events = Eventlog.events log in
  Alcotest.(check bool)
    "bounded" true
    (List.length events <= 10 && List.length events > 0);
  Alcotest.(check int) "count matches" (List.length events) (Eventlog.count log);
  Alcotest.(check int) "dropped accounts for the rest"
    (25 - List.length events)
    (Eventlog.dropped log);
  (* Oldest first, monotonic seq surviving the trim, newest retained. *)
  let seqs = List.map (fun (e : Eventlog.event) -> e.Eventlog.seq) events in
  Alcotest.(check bool) "seq ascending" true (List.sort compare seqs = seqs);
  (match List.rev events with
  | newest :: _ -> Alcotest.(check string) "newest kept" "e25" newest.Eventlog.label
  | [] -> Alcotest.fail "no events");
  Eventlog.clear log;
  Alcotest.(check int) "clear empties" 0 (Eventlog.count log);
  match Eventlog.create ~capacity:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 1 must be rejected"

(* --- the SLO engine --- *)

let test_slo_burn_rate () =
  (* 1 s buckets, 3-bucket long window, 2x threshold; 90% availability
     and 90% of ops under 100 ms. Error budget is 0.1 on both
     dimensions, so a breach needs a >0.2 bad fraction in both the
     bucket and its trailing 3-bucket window. *)
  let target =
    { Slo.availability = 0.9; latency_ms = 100.0; latency_quantile = 0.9 }
  in
  let fresh () =
    Slo.create ~window_ms:1_000.0 ~long_windows:3 ~burn_threshold:2.0 ~target ()
  in
  (* No observations: vacuously healthy. *)
  let empty = Slo.summary (fresh ()) in
  Alcotest.(check int) "no ops" 0 empty.Slo.ops;
  Alcotest.(check (float 1e-9)) "availability 1.0" 1.0 empty.Slo.availability;
  Alcotest.(check int) "no breaches" 0 (List.length empty.Slo.breach_list);
  (* All fast successes: no breach. *)
  let healthy = fresh () in
  for i = 0 to 29 do
    Slo.observe healthy
      ~now:(float_of_int i *. 100.0)
      ~ok:true ~latency_ms:10.0
  done;
  Alcotest.(check int) "healthy: no breaches" 0
    (List.length (Slo.breaches healthy));
  (* Half the ops in every bucket fail: short and long burn are both
     0.5 / 0.1 = 5x >= 2x, so every bucket breaches availability. *)
  let failing = fresh () in
  for bucket = 0 to 2 do
    for i = 0 to 9 do
      Slo.observe failing
        ~now:((float_of_int bucket *. 1_000.0) +. (float_of_int i *. 10.0))
        ~ok:(i mod 2 = 0) ~latency_ms:10.0
    done
  done;
  let breaches = Slo.breaches failing in
  Alcotest.(check int) "three availability breaches" 3 (List.length breaches);
  List.iter
    (fun (b : Slo.breach) ->
      Alcotest.(check string) "dimension" "availability" b.Slo.dimension;
      Alcotest.(check (float 1e-9)) "short burn 5x" 5.0 b.Slo.short_burn;
      Alcotest.(check (float 1e-9)) "long burn 5x" 5.0 b.Slo.long_burn)
    breaches;
  (match breaches with
  | first :: _ ->
      Alcotest.(check (float 1e-9)) "breach stamped at window end" 1_000.0
        first.Slo.at
  | [] -> ());
  (* One bad bucket out of many good ones: the short window burns hot
     but the long window absorbs it — the multi-window rule holds. *)
  let spike = fresh () in
  for bucket = 0 to 2 do
    for i = 0 to 9 do
      Slo.observe spike
        ~now:((float_of_int bucket *. 1_000.0) +. (float_of_int i *. 10.0))
        ~ok:(bucket <> 1 || i <> 0)
        ~latency_ms:10.0
    done
  done;
  Alcotest.(check int) "absorbed spike: no breaches" 0
    (List.length (Slo.breaches spike));
  (* Slow-but-successful ops breach the latency dimension only. *)
  let slow = fresh () in
  for bucket = 0 to 2 do
    for i = 0 to 9 do
      Slo.observe slow
        ~now:((float_of_int bucket *. 1_000.0) +. (float_of_int i *. 10.0))
        ~ok:true ~latency_ms:500.0
    done
  done;
  let lat_breaches = Slo.breaches slow in
  Alcotest.(check bool) "latency breaches fire" true (lat_breaches <> []);
  List.iter
    (fun (b : Slo.breach) ->
      Alcotest.(check string) "latency dimension" "latency" b.Slo.dimension)
    lat_breaches;
  let s = Slo.summary slow in
  Alcotest.(check int) "30 ops" 30 s.Slo.ops;
  Alcotest.(check int) "0 errors" 0 s.Slo.errors;
  Alcotest.(check int) "30 slow" 30 s.Slo.slow

(* --- the attribution join --- *)

let test_attribution_join () =
  let fault_a =
    { Attribution.at = 100.0; until = 200.0; kind = "crash"; label = "crash A" }
  in
  let fault_b =
    {
      Attribution.at = 150.0;
      until = 300.0;
      kind = "partition";
      label = "partition B";
    }
  in
  let ops =
    [
      (* Overlaps A only (ends before B starts). *)
      { Attribution.started = 90.0; finished = 110.0; ok = false; retries = 2 };
      (* Overlaps both A and B: compounding faults both own it. *)
      { Attribution.started = 160.0; finished = 190.0; ok = true; retries = 1 };
      (* Overlaps B only. *)
      { Attribution.started = 250.0; finished = 260.0; ok = false; retries = 0 };
      (* Outside both windows. *)
      { Attribution.started = 400.0; finished = 410.0; ok = false; retries = 9 };
    ]
  in
  (* 180..220 overlaps A by 20 ms and B by 40 ms; 500..520 overlaps
     neither. *)
  let windows = [ (180.0, 220.0); (500.0, 520.0) ] in
  (* Pass the faults out of order: impacts come back sorted by time. *)
  let impacts =
    Attribution.attribute ~faults:[ fault_b; fault_a ] ~ops ~windows ()
  in
  match impacts with
  | [ a; b ] ->
      Alcotest.(check string) "sorted by time" "crash A"
        a.Attribution.fault.Attribution.label;
      Alcotest.(check int) "A ops" 2 a.Attribution.ops;
      Alcotest.(check int) "A failures" 1 a.Attribution.failures;
      Alcotest.(check int) "A retries" 3 a.Attribution.retries;
      Alcotest.(check (float 1e-9)) "A unavailable overlap" 20.0
        a.Attribution.unavailable_ms;
      Alcotest.(check int) "B ops" 2 b.Attribution.ops;
      Alcotest.(check int) "B failures" 1 b.Attribution.failures;
      Alcotest.(check int) "B retries" 1 b.Attribution.retries;
      Alcotest.(check (float 1e-9)) "B unavailable overlap" 40.0
        b.Attribution.unavailable_ms
  | other -> Alcotest.failf "expected 2 impacts, got %d" (List.length other)

(* --- tail-based span retention --- *)

(* Span events through the hub's stream, as a producing layer emits
   them: the span store builds spans from these alone. *)
let span_layer =
  {
    Vobs.Stream.column = "test";
    cat = (fun _ -> Eventlog.Client);
    host = (fun _ -> "");
    trace = (fun _ -> 0);
    pp = (fun ~timeline:_ _ _ -> ());
    span = Some Fun.id;
  }

let emit_span hub ~at (e : Span.event) =
  Vobs.Stream.emit (Hub.stream hub) span_layer ~consumers:Vobs.Stream.spans
    ~clock:{ Vsim.Engine.at } e

(* One finished one-span trace, its hop's op [op]: the span's id, or
   the still-open span's when [outcome] is [None]. *)
let one_span_trace hub ~now ?tag ~op outcome =
  let e = Span.event () in
  e.Span.verb <- Span.Open;
  e.ctx <- Hub.start_trace hub ~now;
  e.op <- op;
  e.host <- "ws0";
  e.server <- "fs";
  e.pid <- 7;
  e.context <- 1;
  e.index <- 0;
  emit_span hub ~at:now e;
  let id = e.id in
  if id = 0 then Alcotest.fail "tracing on but no span";
  Option.iter
    (fun tag ->
      e.verb <- Span.Tag;
      e.note <- tag;
      emit_span hub ~at:now e)
    tag;
  Option.iter
    (fun outcome ->
      e.verb <- Span.Close;
      e.id <- id;
      e.index <- -1;
      e.note <- outcome;
      emit_span hub ~at:(now +. 1.0) e)
    outcome;
  (e.ctx.Span.trace, op)

let survivors hub =
  List.map (fun (s : Span.t) -> (s.Span.trace_id, s.Span.op)) (Hub.all_spans hub)
  |> List.sort compare

(* Fill a hub past its span limit with boring finished traces plus a
   few interesting ones (an error outcome, a fault tag, a still-open
   span) and return the surviving (trace, op) set. *)
let fill_hub () =
  let hub = Hub.create ~tracing:true ~span_limit:40 () in
  let interesting = ref [] in
  for i = 1 to 120 do
    let now = float_of_int i *. 10.0 in
    let op = Fmt.str "op%d" i in
    (* Every 17th trace errors, every 23rd hits a fault, and one stays
       open: all three kinds must survive eviction. *)
    if i mod 17 = 0 then
      interesting := one_span_trace hub ~now ~op (Some "timeout") :: !interesting
    else if i mod 23 = 0 then
      interesting :=
        one_span_trace hub ~now ~tag:"fault" ~op (Some "OK") :: !interesting
    else if i = 60 then
      interesting := one_span_trace hub ~now ~op None :: !interesting
    else ignore (one_span_trace hub ~now ~op (Some "OK"))
  done;
  (hub, survivors hub, List.sort compare !interesting)

let test_tail_retention () =
  let hub, survivors_, interesting = fill_hub () in
  Alcotest.(check bool) "spans were dropped" true (Hub.spans_dropped hub > 0);
  Alcotest.(check int) "drops counted in the metrics registry"
    (Hub.spans_dropped hub)
    (Vobs.Metrics.counter_value (Hub.metrics hub) ~host:"obs" ~server:"hub"
       ~op:"spans-dropped");
  (* Every interesting trace survived the trim. *)
  List.iter
    (fun entry ->
      if not (List.mem entry survivors_) then
        Alcotest.failf "interesting span %d/%s was evicted" (fst entry)
          (snd entry))
    interesting;
  (* Same fill, same survivors: eviction is deterministic. *)
  let _, survivors2, _ = fill_hub () in
  Alcotest.(check (list (pair int string))) "deterministic survivor set"
    survivors_ survivors2;
  (* A resolution step that answered with a referral or a terminal
     binding ended clean: two old such traces drop before four newer
     OK ones. *)
  let hub = Hub.create ~tracing:true ~span_limit:8 () in
  ignore (one_span_trace hub ~now:10.0 ~op:"ResolveStep" (Some "referral"));
  ignore (one_span_trace hub ~now:20.0 ~op:"ResolveStep" (Some "terminal"));
  let ok =
    List.init 7 (fun i ->
        one_span_trace hub ~now:(float_of_int (30 + (10 * i))) ~op:"Open"
          (Some "OK"))
  in
  Alcotest.(check (list (pair int string)))
    "referral and terminal steps are clean" (List.filteri (fun i _ -> i >= 3) ok)
    (survivors hub)

(* --- injector fault windows --- *)

(* Run a tiny installation under a hand-built plan and check that the
   applied actions pair up into attribution windows: each fault's
   [until] is its recovery's time. *)
let test_injector_fault_windows () =
  let t = Scenario.build ~workstations:2 ~file_servers:2 () in
  let plan =
    Plan.of_events ~seed:1
      (Plan.crash_restart ~addr:(Scenario.fs_addr 1) ~at:100.0 ~downtime_ms:50.0
      @ Plan.partition_heal ~a:(Scenario.ws_addr 0) ~b:(Scenario.ws_addr 1)
          ~at:200.0 ~duration_ms:40.0
      @ Plan.loss_burst ~at:300.0 ~duration_ms:30.0 ~p:0.2
      @ Plan.slow_host ~addr:(Scenario.fs_addr 0) ~at:400.0 ~duration_ms:20.0
          ~ms:5.0)
  in
  let inj = Injector.install t plan in
  Scenario.run t;
  let faults = Injector.attribution_faults inj ~horizon_ms:1_000.0 in
  let find kind =
    match List.find_opt (fun f -> f.Attribution.kind = kind) faults with
    | Some f -> f
    | None -> Alcotest.failf "no %s fault window" kind
  in
  Alcotest.(check int) "four windows" 4 (List.length faults);
  let crash = find "crash" in
  Alcotest.(check (float 1e-9)) "crash at" 100.0 crash.Attribution.at;
  Alcotest.(check (float 1e-9)) "crash until restart" 150.0
    crash.Attribution.until;
  let partition = find "partition" in
  Alcotest.(check (float 1e-9)) "partition until heal" 240.0
    partition.Attribution.until;
  let loss = find "loss" in
  Alcotest.(check (float 1e-9)) "loss until restore" 330.0
    loss.Attribution.until;
  let slow = find "slow" in
  Alcotest.(check (float 1e-9)) "slow until restore" 420.0
    slow.Attribution.until

let suite =
  [
    ( "recorder",
      [
        Alcotest.test_case "json parse failure paths" `Quick
          test_json_parse_failures;
        Alcotest.test_case "eventlog bounds and trim" `Quick test_eventlog_bounds;
        Alcotest.test_case "slo burn-rate math" `Quick test_slo_burn_rate;
        Alcotest.test_case "attribution join" `Quick test_attribution_join;
        Alcotest.test_case "tail-based span retention" `Quick test_tail_retention;
        Alcotest.test_case "injector fault windows" `Quick
          test_injector_fault_windows;
      ] );
  ]
