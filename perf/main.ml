(* The repository benchmark.

     dune exec perf/main.exe -- [--seed N] [--seconds S] [--trace 0|1]
                                [--scale F] [--out FILE] [WORKLOAD...]

   Runs each named workload (all four by default) on the deterministic
   simulator and prints one line per metric, "workload metric value
   unit", then a last line of JSON: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 it reports the end-to-end metrics, with
   --trace 1 the per-layer metrics of a separate traced run, and with
   neither both. --out writes the full result document (every sample,
   every check) to FILE for perf/compare.exe.

   Every simulated run happens in a fresh child process of this same
   executable, one at a time — a heap peak belongs to one run, and no
   run inherits another's garbage. Simulated-time metrics are a pure
   function of (workload, seed); the determinism self-check holds every
   repetition and the traced run to the same latency series, bit for
   bit. Host-cost metrics are medians over the repetitions that fit in
   --seconds (at least three). *)

module W = Workload
module Json = Vobs.Json

let default_seed = 1

(* --- metric catalogue: what is reported, in which unit --- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_p50_ms", "ms");
    ("sim_p99_ms", "ms");
    ("sim_capacity_ops_s", "1/s");
    ("host_ops_per_s", "1/s");
    ("minor_words_per_op", "words");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("vsim.events_per_op", "count");
    ("vsim.cancelled_per_op", "count");
    ("vsim.host_ns_per_event", "ns");
    ("vsim.probe_ns_per_event", "ns");
    ("vsim.probe_words_per_event", "words");
    ("vnet.frames_per_op", "count");
    ("vnet.bytes_per_op", "bytes");
    ("vnet.frames_dropped", "count");
    ("vnet.link_busy_max_pct", "%");
    ("vnet.link_queue_peak", "count");
    ("vnet.probe_ns_per_frame", "ns");
    ("vkernel.txn_per_op", "count");
    ("vkernel.server_queue_peak", "count");
    ("vkernel.server_queue_mean", "count");
    ("vkernel.probe_ns_per_txn", "ns");
    ("vnaming.server_requests_per_op", "count");
    ("vnaming.forwards_per_op", "count");
    ("vnaming.specific_ms_mean", "ms");
    ("vnaming.prefix_requests_per_op", "count");
    ("vnaming.cache_hit_ratio", "ratio");
    ("vnaming.cache_stale_per_op", "count");
    ("vnaming.probe_ns_per_walk", "ns");
    ("vnaming.probe_ns_per_cache_find", "ns");
    ("vservices.disk_writes_per_op", "count");
    ("vservices.replica_txn_per_write", "count");
    ("span.client_self_ms.mean", "ms");
    ("span.client_self_ms.p99", "ms");
    ("span.prefix_service_ms.mean", "ms");
    ("span.prefix_service_ms.p99", "ms");
    ("span.server_service_ms.mean", "ms");
    ("span.server_service_ms.p99", "ms");
    ("span.queue_wait_ms.mean", "ms");
    ("span.queue_wait_ms.p99", "ms");
    ("span.hops_per_op", "count");
    ("trace.overhead_pct", "%");
    ("host.attributed_share", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* --- JSON plumbing --- *)

let num j key =
  match Json.member key j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some Json.Null -> infinity
  | _ -> failwith (Fmt.str "child result lacks %S" key)

let int j key = int_of_float (num j key)

let strings j key =
  match Json.member key j with
  | Some (Json.List l) ->
      List.filter_map (function Json.String s -> Some s | _ -> None) l
  | _ -> []

let field j key = Option.value ~default:Json.Null (Json.member key j)
let floats l = Json.List (List.map (fun v -> Json.Float v) l)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  W.quantile a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* --- the child side: one simulated run, one JSON line on stdout --- *)

let spans_fields (s : W.spans) =
  let stat name a =
    let p99 = if Array.length a = 0 then 0.0 else W.quantile a 0.99 in
    [ (name ^ ".mean", Json.Float (mean a)); (name ^ ".p99", Json.Float p99) ]
  in
  let hops =
    if s.W.roots = 0 then 0.0
    else float_of_int s.W.hops /. float_of_int s.W.roots
  in
  stat "client_self_ms" s.W.client_self
  @ stat "prefix_service_ms" s.W.prefix_service
  @ stat "server_service_ms" s.W.server_service
  @ stat "queue_wait_ms" s.W.queue_wait
  @ [ ("hops_per_op", Json.Float hops); ("dropped", Json.Int s.W.dropped) ]

let result_fields (r : W.result) =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  let heap = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0 in
  let counters = List.map (fun (k, v) -> (k, Json.Float v)) r.W.counters in
  [
    ("issued", Json.Int r.W.issued);
    ("ok", Json.Int r.W.ok);
    ("failed", Json.Int r.W.failed);
    ("unfinished", Json.Int r.W.unfinished);
    ("violations", Json.Int r.W.violations);
    ("errors", Json.List (List.map (fun e -> Json.String e) r.W.errors));
    ("p50", Json.Float r.W.p50);
    ("p99", Json.Float r.W.p99);
    ("digest", Json.String r.W.digest);
    ("setup_s", Json.Float r.W.setup_s);
    ("setup_rescaled_s", Json.Float r.W.setup_rescaled_s);
    ("run_cpu_s", Json.Float r.W.run_cpu_s);
    ("run_rescaled_s", Json.Float r.W.run_rescaled_s);
    ("minor_words", Json.Float r.W.minor_words);
    ("heap_peak_mb", Json.Float heap);
    ("counters", Json.Obj counters);
    ( "spans",
      match r.W.spans with
      | Some s -> Json.Obj (spans_fields s)
      | None -> Json.Null );
    ("queue_peak", Json.Float r.W.queue_peak);
    ("queue_mean", Json.Float r.W.queue_mean);
  ]

let probe_fields (p : Probe.t) =
  [
    ("ns_per_event", Json.Float p.Probe.ns_per_event);
    ("words_per_event", Json.Float p.Probe.words_per_event);
    ("ns_per_frame", Json.Float p.Probe.ns_per_frame);
    ("events_per_frame", Json.Float p.Probe.events_per_frame);
    ("ns_per_txn", Json.Float p.Probe.ns_per_txn);
    ("events_per_txn", Json.Float p.Probe.events_per_txn);
    ("frames_per_txn", Json.Float p.Probe.frames_per_txn);
    ("ns_per_walk", Json.Float p.Probe.ns_per_walk);
    ("ns_per_cache_find", Json.Float p.Probe.ns_per_cache_find);
  ]

let child kind spec ~seed ~scale ~bad_echo =
  let nominal ?tracing () = W.nominal ?tracing ~bad_echo spec ~seed ~scale in
  let fields =
    match kind with
    | "rep" -> result_fields (nominal ())
    | "traced" -> result_fields (nominal ~tracing:true ())
    (* An installation with no operations: its setup, then boot. *)
    | "setup" ->
        let r = W.nominal spec ~seed ~scale:0.0 in
        [
          ("setup_s", Json.Float r.W.setup_s);
          ("setup_rescaled_s", Json.Float r.W.setup_rescaled_s);
        ]
    | "capacity" -> [ ("capacity", Json.Float (W.capacity spec ~seed ~scale)) ]
    | "probe" -> probe_fields (Probe.run spec ~scale ~seed)
    | other -> failwith ("unknown child kind " ^ other)
  in
  print_endline (Json.to_string (Json.Obj fields))

(* --- the parent side --- *)

type config = { seed : int; scale : float; seconds : float; bad_echo : bool }

(* Run one child to completion and parse its last stdout line. *)
let spawn cfg kind (spec : W.spec) =
  let args =
    [
      Sys.executable_name;
      "--child";
      kind;
      "--workload";
      spec.W.name;
      "--seed";
      string_of_int cfg.seed;
      "--scale";
      Printf.sprintf "%h" cfg.scale;
    ]
    @ if cfg.bad_echo then [ "--inject-bad-echo" ] else []
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name (Array.of_list args)
  in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok j -> j
  | Unix.WEXITED 0, Error e ->
      failwith (Fmt.str "%s child: bad output: %s" kind e)
  | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      failwith
        (Fmt.str "%s child for %s exited with status %d" kind spec.W.name n)

(* What a workload's run established. *)
type outcome = {
  mutable errors : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float list) list;
      (** name -> samples; the value reported is their median *)
  mutable raw : (string * float list) list;
      (** host figures before rescaling *)
}

let problem o fmt = Fmt.kstr (fun s -> o.errors <- o.errors @ [ s ]) fmt
let record o name samples = o.metrics <- o.metrics @ [ (name, samples) ]

(* A child's engine CPU time, rescaled slice by slice to the reference
   loop's nominal speed (see reference.ml). *)
let engine_cpu j = num j "run_rescaled_s"

(* Everything a repetition reports about the simulated system (not
   the host) must agree across repetitions, bit for bit. The traced
   run's queue sampler adds engine events, so it is held to the
   latency series only. *)
let sim_identity ~counters j =
  Json.to_string
    (Json.Obj
       ([
          ("issued", field j "issued");
          ("ok", field j "ok");
          ("failed", field j "failed");
          ("p50", field j "p50");
          ("p99", field j "p99");
          ("digest", field j "digest");
        ]
       @ if counters then [ ("counters", field j "counters") ] else []))

let check_identical o ~what ?(counters = true) a b =
  if sim_identity ~counters a <> sim_identity ~counters b then
    problem o "determinism: %s differs from the first repetition" what

let check_rep o (spec : W.spec) j =
  List.iter (fun e -> problem o "%s" e) (strings j "errors");
  let issued = int j "issued" and ok = int j "ok" in
  let failed = int j "failed" and unfinished = int j "unfinished" in
  if failed + unfinished > 0 || int j "violations" > 0 then
    problem o "%s: %d failed, %d unfinished, %d violations of %d issued"
      spec.W.name failed unfinished (int j "violations") issued;
  if issued <> ok + failed + unfinished then
    problem o "%s: issued <> ok + failed + unfinished" spec.W.name

(* The first run's outputs are checked before anything else is
   measured; a run that fails them stops there ([Exit]). *)
let first_rep cfg o spec =
  let first = spawn cfg "rep" spec in
  check_rep o spec first;
  o.attempted <- int first "issued";
  o.failed <- int first "failed" + int first "unfinished";
  if o.errors <> [] then raise Exit;
  first

let end_to_end_phase cfg o spec =
  let start = Unix.gettimeofday () in
  let first = first_rep cfg o spec in
  let capacity = num (spawn cfg "capacity" spec) "capacity" in
  let setups = List.init 3 (fun _ -> spawn cfg "setup" spec) in
  (* More repetitions while the next one still fits the budget. *)
  let rec more acc took =
    let elapsed = Unix.gettimeofday () -. start in
    let n = List.length acc in
    if n < 3 || (elapsed +. took < cfg.seconds && n < 15) then begin
      let t0 = Unix.gettimeofday () in
      let j = spawn cfg "rep" spec in
      more (j :: acc) (Unix.gettimeofday () -. t0)
    end
    else List.rev acc
  in
  let reps = more [ first ] 0.0 in
  List.iteri
    (fun i j ->
      if i > 0 then
        check_identical o ~what:(Fmt.str "repetition %d" (i + 1)) first j)
    reps;
  let each f = List.map f reps in
  let setup key = List.map (fun j -> num j key) (setups @ reps) in
  record o "setup_s" (setup "setup_rescaled_s");
  record o "sim_p50_ms" [ num first "p50" ];
  record o "sim_p99_ms" [ num first "p99" ];
  record o "sim_capacity_ops_s" [ capacity ];
  record o "host_ops_per_s" (each (fun j -> num j "ok" /. engine_cpu j));
  o.raw <-
    [
      ("setup_s", setup "setup_s");
      ("host_ops_per_s", each (fun j -> num j "ok" /. num j "run_cpu_s"));
    ];
  record o "minor_words_per_op"
    (each (fun j -> num j "minor_words" /. num j "ok"));
  record o "heap_peak_mb" (each (fun j -> num j "heap_peak_mb"));
  reps

let per_layer_phase cfg o spec ~untraced =
  let start = Unix.gettimeofday () in
  let untraced =
    match untraced with u :: _ -> u | [] -> first_rep cfg o spec
  in
  let probe = spawn cfg "probe" spec in
  (* Pairs of traced and untraced runs while the budget lasts: the
     overhead figure is a ratio of medians. *)
  let rec pairs plain traced =
    let t = spawn cfg "traced" spec in
    check_identical o ~what:"the traced run" ~counters:false untraced t;
    let traced = t :: traced in
    let elapsed = Unix.gettimeofday () -. start in
    if elapsed < cfg.seconds && List.length traced < 8 then begin
      let p = spawn cfg "rep" spec in
      check_identical o ~what:"a repetition" untraced p;
      pairs (p :: plain) traced
    end
    else (plain, traced)
  in
  let plain, traced = pairs [ untraced ] [] in
  let traced_first = List.hd (List.rev traced) in
  let spans = field traced_first "spans" in
  let span k = match spans with Json.Null -> 0.0 | s -> num s k in
  if span "dropped" > 0.0 then
    problem o "traced run dropped %.0f spans" (span "dropped");
  let c = field untraced "counters" in
  let counter k = match Json.member k c with Some _ -> num c k | None -> 0.0 in
  let ops = num untraced "ok" in
  let per_op k = counter k /. ops in
  let cpu l = median (List.map engine_cpu l) in
  let p k = num probe k in
  (* Each layer is charged only its own share of a probe: the engine
     events and frames inside a frame or transaction probe are
     subtracted at their own measured cost. Probes are timed raw, so
     the share divides by raw engine time too. *)
  let ns_event = p "ns_per_event" in
  let ns_frame =
    Float.max 0.0 (p "ns_per_frame" -. (p "events_per_frame" *. ns_event))
  in
  let ns_txn =
    Float.max 0.0
      (p "ns_per_txn"
      -. (p "events_per_txn" *. ns_event)
      -. (p "frames_per_txn" *. ns_frame))
  in
  let lookups = counter "cache_hits" +. counter "cache_misses" in
  let attributed =
    ((per_op "events" +. per_op "cancelled") *. ns_event)
    +. (per_op "frames" *. ns_frame)
    +. (per_op "txn" *. ns_txn)
    +. (per_op "walks" *. p "ns_per_walk")
    +. (lookups /. ops *. p "ns_per_cache_find")
  in
  let raw_cpu = median (List.map (fun j -> num j "run_cpu_s") plain) in
  let one name v = record o name [ v ] in
  one "vsim.events_per_op" (per_op "events");
  one "vsim.cancelled_per_op" (per_op "cancelled");
  one "vsim.host_ns_per_event" (cpu plain *. 1e9 /. counter "events");
  one "vsim.probe_ns_per_event" ns_event;
  one "vsim.probe_words_per_event" (p "words_per_event");
  one "vnet.frames_per_op" (per_op "frames");
  one "vnet.bytes_per_op" (per_op "bytes");
  one "vnet.frames_dropped" (counter "frames_dropped");
  one "vnet.link_busy_max_pct" (counter "link_busy_max_pct");
  one "vnet.link_queue_peak" (counter "link_queue_peak");
  one "vnet.probe_ns_per_frame" (p "ns_per_frame");
  one "vkernel.txn_per_op" (per_op "txn");
  one "vkernel.server_queue_peak" (num traced_first "queue_peak");
  one "vkernel.server_queue_mean" (num traced_first "queue_mean");
  one "vkernel.probe_ns_per_txn" (p "ns_per_txn");
  one "vnaming.server_requests_per_op" (per_op "server_requests");
  one "vnaming.forwards_per_op" (per_op "forwards");
  one "vnaming.specific_ms_mean" (counter "specific_ms_mean");
  one "vnaming.prefix_requests_per_op" (per_op "prefix_requests");
  one "vnaming.cache_hit_ratio"
    (if lookups = 0.0 then 0.0 else counter "cache_hits" /. lookups);
  one "vnaming.cache_stale_per_op" (per_op "cache_stale");
  one "vnaming.probe_ns_per_walk" (p "ns_per_walk");
  one "vnaming.probe_ns_per_cache_find" (p "ns_per_cache_find");
  one "vservices.disk_writes_per_op" (per_op "disk_writes");
  one "vservices.replica_txn_per_write" (counter "replica_txn_per_write");
  List.iter
    (fun k -> one ("span." ^ k) (span k))
    [
      "client_self_ms.mean";
      "client_self_ms.p99";
      "prefix_service_ms.mean";
      "prefix_service_ms.p99";
      "server_service_ms.mean";
      "server_service_ms.p99";
      "queue_wait_ms.mean";
      "queue_wait_ms.p99";
      "hops_per_op";
    ];
  one "trace.overhead_pct" (((cpu traced /. cpu plain) -. 1.0) *. 100.0);
  one "host.attributed_share" (attributed /. (raw_cpu *. 1e9 /. ops))

let run_workload cfg ~trace spec =
  let o = { errors = []; attempted = 0; failed = 0; metrics = []; raw = [] } in
  (try
     let reps =
       if trace <> Some 1 then end_to_end_phase cfg o spec else []
     in
     if trace <> Some 0 then per_layer_phase cfg o spec ~untraced:reps
   with
  | Exit -> ()
  | Failure e -> problem o "%s" e);
  o

(* --- output --- *)

let metric_json ?samples name value =
  Json.Obj
    ([ ("value", Json.Float value); ("unit", Json.String (unit_of name)) ]
    @ match samples with Some s -> [ ("samples", floats s) ] | None -> [])

let workload_json o =
  Json.Obj
    [
      ("valid", Json.Bool (o.errors = []));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("errors", Json.List (List.map (fun e -> Json.String e) o.errors));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, s) -> (n, metric_json ~samples:s n (median s)))
             o.metrics) );
      ("raw_samples", Json.Obj (List.map (fun (n, s) -> (n, floats s)) o.raw));
    ]

let main cfg ~trace ~out specs =
  let results =
    List.map (fun (spec : W.spec) -> (spec, run_workload cfg ~trace spec)) specs
  in
  List.iter
    (fun ((spec : W.spec), o) ->
      List.iter
        (fun (name, samples) ->
          Printf.printf "%s %s %.6g %s\n" spec.W.name name (median samples)
            (unit_of name))
        o.metrics;
      List.iter
        (fun e -> Printf.printf "%s CHECK FAILED: %s\n" spec.W.name e)
        o.errors)
    results;
  let valid = List.for_all (fun (_, o) -> o.errors = []) results in
  (match out with
  | None -> ()
  | Some file ->
      let doc =
        Json.Obj
          [
            ("tool", Json.String "perf");
            ("seed", Json.Int cfg.seed);
            ("scale", Json.Float cfg.scale);
            ("seconds", Json.Float cfg.seconds);
            ("valid", Json.Bool valid);
            ( "workloads",
              Json.Obj
                (List.map
                   (fun ((spec : W.spec), o) -> (spec.W.name, workload_json o))
                   results) );
          ]
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n'));
  (* The result line: bare metric names for one workload, prefixed with
     "workload:" for several. *)
  let key (spec : W.spec) name =
    match specs with [ _ ] -> name | _ -> spec.W.name ^ ":" ^ name
  in
  let metrics =
    List.concat_map
      (fun (spec, o) ->
        List.map
          (fun (name, samples) ->
            (key spec name, metric_json name (median samples)))
          o.metrics)
      results
  in
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool valid);
            ("attempted", Json.Int (max 1 (sum (fun o -> o.attempted))));
            ("failed", Json.Int (sum (fun o -> o.failed)));
            ("metrics", Json.Obj metrics);
          ]));
  if not valid then exit 1

let usage () =
  prerr_endline
    "usage: main.exe [--seed N] [--seconds S] [--trace 0|1] [--scale F]\n\
    \                [--out FILE] [--workload NAME]... [NAME...]";
  exit 2

let () =
  let seed = ref default_seed and scale = ref 1.0 and seconds = ref 20.0 in
  let trace = ref None and out = ref None and bad_echo = ref false in
  let child_kind = ref None and names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (int_of_string v);
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--workload" :: v :: rest ->
        names := !names @ [ v ];
        parse rest
    | "--inject-bad-echo" :: rest ->
        bad_echo := true;
        parse rest
    | "--child" :: v :: rest ->
        child_kind := Some v;
        parse rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
        names := !names @ [ v ];
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let specs =
    List.map
      (fun n ->
        match W.find n with
        | Some s -> s
        | None ->
            prerr_endline ("unknown workload " ^ n);
            exit 2)
      !names
  in
  let specs = if specs = [] then W.all else specs in
  match !child_kind with
  | Some kind ->
      child kind (List.hd specs) ~seed:!seed ~scale:!scale ~bad_echo:!bad_echo
  | None ->
      let cfg =
        {
          seed = !seed;
          scale = !scale;
          seconds = !seconds;
          bad_echo = !bad_echo;
        }
      in
      main cfg ~trace:!trace ~out:!out specs
