(* The benchmark's workloads and the simulated runs behind every metric.

   Three workloads drive the paper's naming path on one installation
   (64 diskless workstations and 4 file servers on a switched 10 Mbit
   fabric); the fourth drives bare kernel IPC on a large gigabit fabric
   with no naming layer at all. Each run is a pure function of
   (workload, seed, scale, rate): the seed draws the operation stream —
   arrival times, names, workstation choice — while the installation
   itself (the populated directory trees) is fixed, so two seeds differ
   only in what the clients ask for. *)

module Engine = Vsim.Engine
module Prng = Vsim.Prng
module Proc = Vsim.Proc
module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module Scenario = Vworkload.Scenario
module G = Vworkload.Generator
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Disk = Vservices.Disk
module Replica = Vservices.Replica
module Prefix_server = Vnaming.Prefix_server
module Csnh = Vnaming.Csnh
module Name_cache = Vnaming.Name_cache
module Vmsg = Vnaming.Vmsg
module Hub = Vobs.Hub
module Span = Vobs.Span

type kind = Prefix_open | Cached_zipf | Replica_write | Ipc_fabric

(* Why each workload exists is in BENCHMARK.json and README.md. *)
type spec = {
  name : string;
  kind : kind;
  rate : float;  (** nominal offered load, operations per simulated second *)
  window_ms : float;  (** simulated time over which operations fall due *)
  limit_ms : float;  (** p99 limit the capacity search holds *)
  step_ms : float;  (** window of one capacity-search step *)
}

(* Nominal rates sit near 70% of each workload's knee, the offered rate
   at which p99 crosses its limit (the capacity search's median over
   seeds 1-10: 2,051, 1,738, 652 and 80,500 ops/s). *)
let all =
  [
    {
      name = "prefix-open";
      kind = Prefix_open;
      rate = 1500.0;
      window_ms = 60_000.0;
      limit_ms = 50.0;
      step_ms = 20_000.0;
    };
    {
      name = "cached-zipf";
      kind = Cached_zipf;
      rate = 1250.0;
      window_ms = 60_000.0;
      limit_ms = 50.0;
      step_ms = 20_000.0;
    };
    {
      name = "replica-write";
      kind = Replica_write;
      rate = 450.0;
      window_ms = 60_000.0;
      limit_ms = 100.0;
      step_ms = 20_000.0;
    };
    {
      name = "ipc-fabric";
      kind = Ipc_fabric;
      rate = 56_000.0;
      window_ms = 2_400.0;
      limit_ms = 10.0;
      step_ms = 800.0;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* --- the naming installation --- *)

let workstations = 64
let file_servers = 4
let naming_fan_in = 16
let directories = 200
let files_per_directory = 8
let workers_per_workstation = 4
let cache_capacity = 256
let zipf_s = 1.0
let replica_members = 3
let install_seed = 1984

(* Simulated time the installation gets to boot before the first
   operation falls due. *)
let start_ms = 100.0

(* --- the IPC installation --- *)

let echo_servers = 50
let client_hosts = 2000
let ipc_fan_in = 64
let cohort_size = 200

let gigabit =
  {
    C.name = "1Gb switched";
    bandwidth_bps = 1.0e9;
    header_bytes = 64;
    propagation_ms = 0.005;
  }

let raw_cost =
  { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

(* --- recording what the simulated system returned --- *)

(* One latency slot per issued operation, in issue order: sim ms from
   the time the operation fell due to its completion, [infinity] for a
   failed operation, [nan] while unfinished. *)
type recorder = {
  mutable lat : float array;
  mutable issued : int;
  mutable ok : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failures and violations *)
  mutable violations : int;  (** checks on the run itself, not one op *)
}

(* Sized for the expected operation count up front: growing the array
   mid-run would make the heap peak jump wherever a seed's count
   crosses a power of two. *)
let recorder ~expected =
  {
    lat = Array.make (max 1024 (expected + (expected / 4))) Float.nan;
    issued = 0;
    ok = 0;
    failed = 0;
    errors = [];
    violations = 0;
  }

let note r msg = if List.length r.errors < 8 then r.errors <- msg :: r.errors

let violation r msg =
  r.violations <- r.violations + 1;
  note r msg

let issue r =
  if r.issued = Array.length r.lat then begin
    let bigger = Array.make (2 * r.issued) Float.nan in
    Array.blit r.lat 0 bigger 0 r.issued;
    r.lat <- bigger
  end;
  let i = r.issued in
  r.issued <- i + 1;
  i

let complete r i ~due ~now = function
  | Ok () ->
      r.ok <- r.ok + 1;
      r.lat.(i) <- now -. due
  | Error msg ->
      r.failed <- r.failed + 1;
      r.lat.(i) <- infinity;
      note r (Fmt.str "op %d: %s" i msg)

let in_flight r = r.issued - r.ok - r.failed

(* [q] of a sorted sample by linear interpolation, as Vsim.Stats. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    if frac = 0.0 then sorted.(lo)
    else if sorted.(hi) = infinity then infinity
    else sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

(* Failed and unfinished operations miss every latency limit. *)
let sorted_latencies r =
  let a =
    Array.init r.issued (fun i ->
        let x = r.lat.(i) in
        if Float.is_nan x then infinity else x)
  in
  Array.sort Float.compare a;
  a

(* An FNV-1a-style hash (in 63-bit ints) over the bits of every
   latency, in issue order. *)
let digest r =
  let h = ref 0x1bf29ce484222325 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  for i = 0 to r.issued - 1 do
    let bits = Int64.bits_of_float r.lat.(i) in
    mix (Int64.to_int (Int64.logand bits 0xffffffffL));
    mix (Int64.to_int (Int64.shift_right_logical bits 32))
  done;
  Printf.sprintf "%016x" (!h land max_int)

(* --- what one run reports --- *)

type spans = {
  client_self : float array;
  prefix_service : float array;
  server_service : float array;
  queue_wait : float array;
  hops : int;
  roots : int;
  dropped : int;
}

type result = {
  issued : int;
  ok : int;
  failed : int;
  unfinished : int;
  violations : int;
  errors : string list;
  p50 : float;
  p99 : float;
  digest : string;
  setup_s : float;  (** host CPU s: build, populate, install *)
  setup_rescaled_s : float;  (** the same, rescaled phase by phase *)
  run_cpu_s : float;  (** host CPU s inside [Engine.run] *)
  run_rescaled_s : float;  (** the same, rescaled slice by slice *)
  minor_words : float;  (** minor-heap words allocated inside [Engine.run] *)
  counters : (string * float) list;
  spans : spans option;
  queue_peak : float;
  queue_mean : float;
}

(* Set-up CPU time, rescaled like engine time: a reference slice ends
   each phase of the set-up, and the phase's time is rescaled by it. *)
type clock = {
  mutable last : float;
  mutable raw : float;
  mutable rescaled : float;
}

let clock () = { last = Sys.time (); raw = 0.0; rescaled = 0.0 }

let lap c =
  let spent = Sys.time () -. c.last in
  let speed = Reference.slice () in
  c.raw <- c.raw +. spent;
  c.rescaled <- c.rescaled +. (spent *. speed /. Reference.nominal);
  c.last <- Sys.time ()

(* Host cost of the measured interval. *)
let timed f =
  let w0 = Gc.minor_words () and c0 = Sys.time () in
  f ();
  let c1 = Sys.time () and w1 = Gc.minor_words () in
  (c1 -. c0, w1 -. w0)

(* Run to quiescence, or stop at a finite cutoff (which leaves the
   clock there, so link utilization is only meaningful without one).
   The engine runs in slices of [slice_events], each followed by a
   slice of the reference loop (see reference.ml); splitting a run
   changes no event's order. Host cost counts the engine slices only:
   raw CPU, CPU rescaled by each slice's reference speed, and minor
   words. *)
let slice_events = 20_000

let run_engine eng ~cutoff_ms =
  let cpu = ref 0.0 and rescaled = ref 0.0 and words = ref 0.0 in
  let rec go () =
    let c, w =
      timed (fun () ->
          if cutoff_ms = infinity then Engine.run ~max_events:slice_events eng
          else Engine.run ~until:cutoff_ms ~max_events:slice_events eng)
    in
    let speed = Reference.slice () in
    cpu := !cpu +. c;
    rescaled := !rescaled +. (c *. speed /. Reference.nominal);
    words := !words +. w;
    if Engine.last_run_events eng = slice_events then go ()
  in
  go ();
  (!cpu, !rescaled, !words)

(* --- queue sampling (traced runs only) --- *)

(* A benchmark fiber sampling the kernel receive queues of the server
   processes every 10 ms of simulated time while operations remain.
   It only adds its own timer events, so it runs in traced runs, where
   event counts are not reported. *)
let sample_queues eng domain pids ~until_ms ~done_ =
  let peak = ref 0 and sum = ref 0 and n = ref 0 in
  let rec tick () =
    List.iter
      (fun pid ->
        let d = K.queue_depth domain pid in
        peak := max !peak d;
        sum := !sum + d;
        incr n)
      pids;
    if (not (done_ ())) && Engine.now eng +. 10.0 <= until_ms then
      Engine.schedule ~delay:10.0 eng tick
  in
  Engine.schedule ~delay:10.0 eng tick;
  fun () ->
    let mean = if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n in
    (float_of_int !peak, mean)

(* --- span analysis (traced runs only) --- *)

let prefix_hop (s : Span.t) =
  let suffix = "-prefix-server" in
  let n = String.length s.Span.server and k = String.length suffix in
  n >= k && String.sub s.Span.server (n - k) k = suffix

(* Sim ms of [lo, hi] covered by a union of intervals. *)
let covered ~lo ~hi intervals =
  let sorted = List.sort compare intervals in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a (Float.max lo reach) and b = Float.min b hi in
        if b > a then (acc +. (b -. a), b) else (acc, Float.max reach b))
      (0.0, lo) sorted
  in
  total

(* A layer's self time is its span minus the part its descendants
   cover, each descendant counted from when its request was issued. *)
let analyse_spans hub =
  let by_trace = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      let id = s.Span.trace_id in
      let l = Option.value ~default:[] (Hashtbl.find_opt by_trace id) in
      Hashtbl.replace by_trace id (s :: l))
    (Hub.all_spans hub);
  let self = ref [] and px = ref [] and srv = ref [] and qw = ref [] in
  let hops = ref 0 and roots = ref 0 in
  Hashtbl.iter
    (fun _ spans ->
      match List.partition (fun (s : Span.t) -> s.Span.parent_id = 0) spans with
      | [ root ], children ->
          incr roots;
          hops := !hops + List.length children;
          let issued (c : Span.t) =
            (c.Span.started -. c.Span.queue_wait, c.Span.finished)
          in
          let lo = root.Span.started and hi = root.Span.finished in
          let cover = covered ~lo ~hi (List.map issued children) in
          self := (hi -. lo -. cover) :: !self;
          List.iter
            (fun (c : Span.t) ->
              qw := c.Span.queue_wait :: !qw;
              if prefix_hop c then px := Span.service_ms c :: !px
              else srv := Span.service_ms c :: !srv)
            children
      | _ -> ())
    by_trace;
  let arr l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a
  in
  {
    client_self = arr !self;
    prefix_service = arr !px;
    server_service = arr !srv;
    queue_wait = arr !qw;
    hops = !hops;
    roots = !roots;
    dropped = Hub.spans_dropped hub;
  }

(* --- shared result assembly --- *)

let finish r ~setup ~host ~counters ~spans ~queues =
  let run_cpu_s, run_rescaled_s, minor_words = host in
  let sorted = sorted_latencies r in
  let queue_peak, queue_mean = queues () in
  {
    issued = r.issued;
    ok = r.ok;
    failed = r.failed;
    unfinished = in_flight r;
    violations = r.violations;
    errors = List.rev r.errors;
    p50 = quantile sorted 0.50;
    p99 = quantile sorted 0.99;
    digest = digest r;
    setup_s = setup.raw;
    setup_rescaled_s = setup.rescaled;
    run_cpu_s;
    run_rescaled_s;
    minor_words;
    counters;
    spans;
    queue_peak;
    queue_mean;
  }

let link_counters net ~sim_ms =
  let c = E.counters net in
  let busy, peak =
    List.fold_left
      (fun (busy, peak) s ->
        (Float.max busy s.E.ls_busy_ms, max peak s.E.ls_queue_peak))
      (0.0, 0) (E.link_stats net)
  in
  let busy_pct = if sim_ms > 0.0 then busy /. sim_ms *. 100.0 else 0.0 in
  [
    ("frames", float_of_int c.E.frames_sent);
    ("bytes", float_of_int c.E.bytes_sent);
    ("frames_dropped", float_of_int c.E.frames_dropped);
    ("link_busy_max_pct", busy_pct);
    ("link_queue_peak", float_of_int peak);
  ]

(* --- the naming workloads --- *)

type op = Query of string | Open of string | Write of string

let leaf name =
  let cut =
    match String.rindex_opt name '/' with
    | Some i -> i
    | None -> ( match String.index_opt name ']' with Some i -> i | None -> -1)
  in
  String.sub name (cut + 1) (String.length name - cut - 1)

let verr e = Vio.Verr.to_string e

let execute env = function
  | Query name -> (
      match Runtime.query env name with
      | Ok d when d.Vnaming.Descriptor.name = leaf name -> Ok ()
      | Ok d ->
          Error
            (Fmt.str "query %s described %S, not %S" name
               d.Vnaming.Descriptor.name (leaf name))
      | Error e -> Error (Fmt.str "query %s: %s" name (verr e)))
  | Open name -> (
      match Runtime.open_ env ~mode:Vmsg.Read name with
      | Error e -> Error (Fmt.str "open %s: %s" name (verr e))
      | Ok instance -> (
          match Vio.Client.release (Runtime.self env) instance with
          | Ok () -> Ok ()
          | Error e -> Error (Fmt.str "release %s: %s" name (verr e))))
  | Write name -> (
      match Runtime.create env name with
      | Error e -> Error (Fmt.str "create %s: %s" name (verr e))
      | Ok () -> (
          match Runtime.remove env name with
          | Ok () -> Ok ()
          | Error e -> Error (Fmt.str "remove %s: %s" name (verr e))))

let or_fail what = function
  | Ok v -> v
  | Error code -> failwith (Fmt.str "%s: %a" what Vnaming.Reply.pp code)

(* Build and populate the installation. Every name is
   "[fsK]dir/.../file"; the list is shuffled once with the installation
   seed so Zipf ranks do not follow server or directory order. *)
let build_naming ~lap ~replicated ~tracing =
  let t =
    Scenario.build ~config:C.ethernet_10mbit
      ~topology:(T.switched ~fan_in:naming_fan_in)
      ~workstations ~file_servers ~seed:install_seed ~tracing ()
  in
  lap ();
  let fss = Scenario.(t.file_servers) in
  (* The shared directory is made first on every member, so it gets the
     same inode — and so the same context id — everywhere. *)
  if replicated then
    for k = 0 to replica_members - 1 do
      let fs = File_server.fs fss.(k) in
      ignore
        (or_fail "mkdir shared"
           (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"perf" "shared"))
    done;
  let pop = Prng.create ~seed:install_seed in
  let names =
    List.concat
      (List.init file_servers (fun k ->
           let paths =
             G.populate (Prng.split pop) fss.(k) ~directories
               ~files_per_directory
           in
           lap ();
           List.map (fun p -> Fmt.str "[fs%d]%s" k (G.relative p)) paths))
  in
  Array.iter (fun fs -> Disk.reset_arm (File_server.disk fs)) fss;
  let names = Array.of_list (Prng.shuffle pop names) in
  let rset =
    if not replicated then None
    else
      let domain = Scenario.(t.domain) in
      let members =
        List.init replica_members (fun k ->
            match K.host_of_addr domain (Scenario.fs_addr k) with
            | Some host -> (host, fss.(k))
            | None -> failwith "replica member host")
      in
      let rset = Replica.install domain ~members () in
      Array.iter
        (fun ws ->
          or_fail "rstore binding"
            (Prefix_server.add_binding
               Scenario.(ws.ws_prefix)
               "rstore" (Replica.target rset)))
        Scenario.(t.workstations);
      Some rset
  in
  (t, names, rset)

(* What one client asks for: the seed's stream draws every choice. *)
let draw_op spec names zipf prng i =
  let pick () =
    match zipf with
    | Some cum -> names.(G.zipf_pick prng cum)
    | None -> names.(Prng.int prng (Array.length names))
  in
  let read () = if Prng.bool prng then Open (pick ()) else Query (pick ()) in
  match spec.kind with
  | Replica_write ->
      (* Exactly every other operation writes: a drawn write share would
         move allocation per op with the seed. *)
      if i land 1 = 0 then Write (Fmt.str "[rstore]shared/w%d" i) else read ()
  | Prefix_open | Cached_zipf | Ipc_fabric -> read ()

let csname_ops =
  List.filter_map
    (fun c ->
      if Vmsg.Op.is_csname_request c then Some (Vmsg.Op.to_string c) else None)
    (List.init 256 Fun.id)

let naming_counters t envs =
  let eng = Scenario.(t.engine) in
  let fss = Array.to_list Scenario.(t.file_servers) in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let count c = Vsim.Stats.Counter.value c in
  let fs_stat f = sum (fun fs -> count (f (File_server.stats fs))) fss in
  let prefix_stat f =
    sum
      (fun ws -> count (f (Prefix_server.stats Scenario.(ws.ws_prefix))))
      (Array.to_list Scenario.(t.workstations))
  in
  let specific_sum, specific_n =
    List.fold_left
      (fun (s, n) fs ->
        let series = (File_server.stats fs).Csnh.specific_ms in
        (s +. Vsim.Stats.Series.sum series, n + Vsim.Stats.Series.count series))
      (0.0, 0) fss
  in
  (* Name walks: naming requests the file servers handled (a Release
     is a request but not a walk), from the hub's per-operation
     counters. *)
  let walks =
    let hosts = List.init file_servers (fun k -> Fmt.str "fs%d" k) in
    List.fold_left
      (fun acc ((k : Vobs.Metrics.key), v) ->
        if
          List.mem k.Vobs.Metrics.host hosts
          && List.mem k.Vobs.Metrics.op csname_ops
        then acc + v
        else acc)
      0
      (Vobs.Metrics.counters (Hub.metrics Scenario.(t.obs)))
  in
  let cache = List.map Runtime.name_cache_stats envs in
  let cache_stat f = float_of_int (sum f cache) in
  let disk_writes =
    sum (fun fs -> Disk.write_count (File_server.disk fs)) fss
  in
  [
    ("events", float_of_int (Engine.executed eng));
    ("cancelled", float_of_int (Engine.cancelled_timers eng));
    ("txn", float_of_int (K.ipc_transaction_count Scenario.(t.domain)));
    ("server_requests", float_of_int (fs_stat (fun s -> s.Csnh.requests)));
    ("walks", float_of_int walks);
    ( "forwards",
      float_of_int
        (fs_stat (fun s -> s.Csnh.forwards)
        + prefix_stat (fun s -> s.Csnh.forwards)) );
    ( "specific_ms_mean",
      if specific_n = 0 then 0.0
      else specific_sum /. float_of_int specific_n );
    ("prefix_requests", float_of_int (prefix_stat (fun s -> s.Csnh.requests)));
    ("cache_hits", cache_stat (fun s -> s.Name_cache.hits));
    ("cache_misses", cache_stat (fun s -> s.Name_cache.misses));
    ("cache_stale", cache_stat (fun s -> s.Name_cache.stale));
    ("disk_writes", float_of_int disk_writes);
  ]
  @ link_counters Scenario.(t.net) ~sim_ms:(Engine.now eng)

(* IPC transactions per replicated write, on the idle installation after
   the measured run (as E10 measures write amplification). *)
let replica_amplification t (r : recorder) =
  let domain = Scenario.(t.domain) in
  let writes = 16 in
  let txn0 = K.ipc_transaction_count domain in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"perf-amp" (fun _ env ->
         for k = 0 to (writes / 2) - 1 do
           match execute env (Write (Fmt.str "[rstore]shared/amp%d" k)) with
           | Ok () -> ()
           | Error msg -> violation r ("amplification " ^ msg)
         done));
  Scenario.run t;
  float_of_int (K.ipc_transaction_count domain - txn0) /. float_of_int writes

(* After the run, every member must answer identically for the shared
   directory and a sample of the names written (each now removed). *)
let check_divergence t rset (r : recorder) =
  let stride = max 1 (r.issued / 16) in
  let sample =
    "shared" :: List.init 16 (fun k -> Fmt.str "shared/w%d" (k * stride))
  in
  List.iter
    (fun v -> violation r (Fmt.str "%a" Vfault.Invariant.pp_violation v))
    (Vfault.Invariant.replica_divergence t
       ~members:(List.map snd (Replica.members rset))
       ~names:sample)

let expected_ops ~rate ~window_ms = int_of_float (rate *. window_ms /. 1000.0)

let run_naming spec ~seed ~rate ~window_ms ~cutoff_ms ~tracing =
  let r = recorder ~expected:(expected_ops ~rate ~window_ms) in
  let setup = clock () in
  let replicated = spec.kind = Replica_write in
  let t, names, rset =
    build_naming ~lap:(fun () -> lap setup) ~replicated ~tracing
  in
  let eng = Scenario.(t.engine) in
  let cached = spec.kind = Cached_zipf in
  let zipf =
    if cached then Some (G.zipf_cumulative ~s:zipf_s (Array.length names))
    else None
  in
  (* Keep well under the span store's limit so the traced run drops
     nothing: about 4,000 spans at the workload's hop count. *)
  let hub = Scenario.(t.obs) in
  (if tracing then
     let spans_per_op = if replicated then 6 else 3 in
     let expected = expected_ops ~rate ~window_ms * spans_per_op in
     Hub.set_head_sampling hub ~every:(max 1 (expected / 4000))
       ~seed:install_seed);
  let mailboxes = Array.init workstations (fun _ -> Proc.Mailbox.create ()) in
  let envs = ref [] in
  for ws = 0 to workstations - 1 do
    for w = 0 to workers_per_workstation - 1 do
      ignore
        (Scenario.spawn_client t ~ws
           ~name:(Fmt.str "perf-worker%d" w)
           (fun _ env ->
             envs := env :: !envs;
             if cached then
               Runtime.enable_name_cache env ~capacity:cache_capacity true;
             let rec loop () =
               let i, due, op = Proc.Mailbox.receive mailboxes.(ws) in
               let outcome = execute env op in
               complete r i ~due ~now:(Engine.now eng) outcome;
               loop ()
             in
             loop ()))
    done
  done;
  (* The open-loop generator: Poisson arrivals in simulated time, each
     handed to a uniformly chosen workstation's mailbox. An operation
     that finds all four workers busy waits there, and the wait counts:
     latency runs from the time the operation fell due. *)
  let stream = Prng.create ~seed in
  let arrivals = Prng.split stream and picks = Prng.split stream in
  let window_end = start_ms +. window_ms in
  let mean_gap = 1000.0 /. rate in
  let generating = ref true in
  let rec arrive due =
    if due >= window_end then generating := false
    else
      Engine.schedule_at eng due (fun () ->
          (* In the simulator the generator is never late by
             construction; a late arrival would mean the benchmark
             itself skewed the load. *)
          if Engine.now eng <> due then
            violation r (Fmt.str "generator late at %.3f ms" due);
          let i = issue r in
          let op = draw_op spec names zipf picks i in
          let ws = Prng.int picks workstations in
          Proc.Mailbox.send mailboxes.(ws) (i, due, op);
          arrive (due +. Prng.exponential arrivals ~mean:mean_gap))
  in
  arrive (start_ms +. Prng.exponential arrivals ~mean:mean_gap);
  let queues =
    if tracing then
      sample_queues eng Scenario.(t.domain)
        (Array.to_list (Array.map File_server.pid Scenario.(t.file_servers)))
        ~until_ms:cutoff_ms
        ~done_:(fun () -> (not !generating) && in_flight r = 0)
    else fun () -> (0.0, 0.0)
  in
  let disk_writes_before = List.assoc "disk_writes" (naming_counters t []) in
  lap setup;
  let host = run_engine eng ~cutoff_ms in
  (* Population writes its pages behind at setup; count the run only. *)
  let counters =
    List.map
      (fun (k, v) ->
        if k = "disk_writes" then (k, v -. disk_writes_before) else (k, v))
      (naming_counters t !envs)
  in
  (* Runs cut off mid-stream (capacity steps) leave writes in flight, so
     only complete runs are checked for divergence. *)
  let amplification =
    match rset with
    | Some rset when cutoff_ms = infinity ->
        check_divergence t rset r;
        replica_amplification t r
    | Some _ | None -> 0.0
  in
  finish r ~setup ~host
    ~counters:(counters @ [ ("replica_txn_per_write", amplification) ])
    ~spans:(if tracing then Some (analyse_spans hub) else None)
    ~queues

(* --- the IPC workload --- *)

let echo_server host =
  K.spawn host ~name:"echo" (fun self ->
      let rec loop () =
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender msg);
        loop ()
      in
      loop ())

(* [bad_echo] makes the checker expect the wrong reply to the first
   transaction: the smoke test's proof that a wrong echo fails the
   run. *)
let run_ipc ~seed ~rate ~window_ms ~cutoff_ms ~tracing ~bad_echo =
  let r = recorder ~expected:(expected_ops ~rate ~window_ms) in
  let setup = clock () in
  let eng = Engine.create () in
  let topology = T.switched ~fan_in:ipc_fan_in in
  let net = E.create ~config:gigabit ~topology eng in
  let domain =
    K.create_domain
      ~hosts_hint:(2 * (echo_servers + client_hosts))
      ~cost:raw_cost eng net
  in
  let servers =
    Array.init echo_servers (fun i ->
        echo_server (K.boot_host domain ~name:(Fmt.str "srv%d" i) (i + 1)))
  in
  lap setup;
  let prng = Prng.create ~seed in
  (* Each client host runs one cohort of [cohort_size] virtual clients;
     the per-client mean gap is chosen so the fleet offers [rate]. *)
  let mean_gap_ms =
    float_of_int (client_hosts * cohort_size) *. 1000.0 /. rate
  in
  let window_end = start_ms +. window_ms in
  let running = ref client_hosts in
  for h = 0 to client_hosts - 1 do
    let host =
      K.boot_host domain ~name:(Fmt.str "cli%d" h) (echo_servers + h + 1)
    in
    let cohort = G.cohort ~size:cohort_size ~mean_gap_ms (Prng.split prng) in
    let server = servers.(h mod echo_servers) in
    ignore
      (K.spawn host ~name:"cohort" (fun self ->
           (* Closed per cohort: the next transaction waits for this
              one's reply, and is timed from when it fell due. *)
           let rec loop due k =
             if due < window_end then begin
               let now = Engine.now eng in
               if now < due then Proc.delay eng (due -. now);
               let i = issue r in
               let payload = Fmt.str "%d.%d" h k in
               let expect =
                 if bad_echo && i = 0 then payload ^ "!" else payload
               in
               let outcome =
                 match K.send self server payload with
                 | Ok (reply, _) when reply = expect -> Ok ()
                 | Ok (reply, _) ->
                     Error (Fmt.str "echo %S returned %S" expect reply)
                 | Error e -> Error (Fmt.str "send: %a" K.pp_error e)
               in
               complete r i ~due ~now:(Engine.now eng) outcome;
               loop (due +. G.cohort_next_gap cohort) (k + 1)
             end
             else decr running
           in
           loop (start_ms +. G.cohort_next_gap cohort) 0));
    if h mod 500 = 499 then lap setup
  done;
  let queues =
    if tracing then
      sample_queues eng domain (Array.to_list servers) ~until_ms:cutoff_ms
        ~done_:(fun () -> !running = 0)
    else fun () -> (0.0, 0.0)
  in
  lap setup;
  let host = run_engine eng ~cutoff_ms in
  let counters =
    [
      ("events", float_of_int (Engine.executed eng));
      ("cancelled", float_of_int (Engine.cancelled_timers eng));
      ("txn", float_of_int (K.ipc_transaction_count domain));
    ]
    @ link_counters net ~sim_ms:(Engine.now eng)
  in
  finish r ~setup ~host ~counters ~spans:None ~queues

(* --- entry points --- *)

(* One run at [rate]: operations fall due over [window_ms] (scaled);
   with [cutoff] the engine stops [cutoff] after the window and whatever
   is unfinished counts as missing the limit, otherwise it runs to
   quiescence and every operation must finish. *)
let run ?(tracing = false) ?(bad_echo = false) ?cutoff spec ~seed ~scale ~rate
    ~window_ms =
  let window_ms = window_ms *. scale in
  let cutoff_ms =
    match cutoff with
    | Some grace -> start_ms +. window_ms +. grace
    | None -> infinity
  in
  match spec.kind with
  | Ipc_fabric -> run_ipc ~seed ~rate ~window_ms ~cutoff_ms ~tracing ~bad_echo
  | Prefix_open | Cached_zipf | Replica_write ->
      run_naming spec ~seed ~rate ~window_ms ~cutoff_ms ~tracing

let nominal ?tracing ?bad_echo spec ~seed ~scale =
  run ?tracing ?bad_echo spec ~seed ~scale ~rate:spec.rate
    ~window_ms:spec.window_ms

(* The capacity search: six bisection steps over 0.5-2x the nominal
   rate. A step passes when p99 (failed and unfinished operations
   counting as misses) stays within the limit and at least 99% of the
   operations due in its window completed before the cutoff. *)
let capacity_steps = 6

let capacity spec ~seed ~scale =
  let passes rate =
    let r =
      run spec ~seed ~scale ~rate ~window_ms:spec.step_ms
        ~cutoff:(20.0 *. spec.limit_ms)
    in
    r.p99 <= spec.limit_ms
    && float_of_int r.ok >= 0.99 *. float_of_int r.issued
    && r.issued > 0
  in
  let rec search lo hi k =
    if k = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if passes mid then search mid hi (k - 1) else search lo mid (k - 1)
  in
  search (0.5 *. spec.rate) (2.0 *. spec.rate) capacity_steps
