(* E14 — switched multi-segment fabric vs the shared wire.

   The paper's installation hangs every host off one 3 Mbit Ethernet;
   the whole medium is a single resource, so aggregate throughput is
   pinned to one wire no matter how many hosts contend. The switched
   fabric (Topology.Switched) gives every link its own serialization
   state — this experiment measures what that buys at a scale the
   paper's testbed could not reach.

   Phase A is a network-level drain, deliberately below the kernel: at
   10,000 hosts the kernel's 40 ms retransmission timer turns a
   saturated shared wire into a retransmission storm (frames queue for
   whole seconds, every one of them retransmitted dozens of times), so
   a kernel-level comparison would measure the storm, not the fabric.
   Every host injects a fixed burst of cross-edge frames on the same
   10 Mbit medium, once on the shared wire and once on the switched
   fabric, and we compare aggregate delivered frames per simulated
   second. The whole phase is simulated time — deterministic, so the
   speedup is gated raw against the pinned baseline.

   Phase B is the end-to-end check that the kernel stack runs unchanged
   on the switched fabric: an E12-style cohort soak (echo servers,
   Poisson cohorts) on switched gigabit links, gated on resolved
   transactions per simulated second with zero failures tolerated.

   The nightly soak lane scales both phases past CI size with
   VSYSTEM_SOAK_HOSTS / VSYSTEM_SOAK_OPS (defaults 10,000 hosts and
   50,000 transactions keep PR CI deterministic against the baseline;
   the nightly exercises 100,000 hosts and checks invariants only). *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module En = Vsim.Engine
module Tables = Vworkload.Tables

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

let soak_hosts = env_int "VSYSTEM_SOAK_HOSTS" 10_000
let soak_ops = env_int "VSYSTEM_SOAK_OPS" 50_000

(* --- Phase A: cross-edge drain --- *)

let drain_fan_in = 100
let drain_frames_per_host = 10
let drain_payload_bytes = 480

(* Port bound sized for the drain's burst arrival pattern: each
   edge->spine port absorbs one wave of [drain_fan_in] frames per 10 ms
   while draining at wire speed. Sized so the drain is loss-free — a
   drop here is a bug in the experiment, and Phase A asserts none. *)
let drain_queue_cap = 4096

type drain_result = {
  delivered : int;
  dropped : int;
  sim_ms : float;
  events : int;
  peak_queue : int;
  busiest_label : string;
  busiest_pct : float;
}

let drain topology hosts =
  let eng = En.create () in
  let net = E.create ~config:C.ethernet_10mbit ~topology
      ~queue_cap:drain_queue_cap eng
  in
  for a = 0 to hosts - 1 do
    E.attach net a (fun _ -> ())
  done;
  for a = 0 to hosts - 1 do
    (* A deterministic cross-edge partner: [drain_fan_in] ahead, so on
       the switched fabric every frame crosses the spine. *)
    let dst = (a + drain_fan_in) mod hosts in
    for k = 0 to drain_frames_per_host - 1 do
      let delay =
        (float_of_int k *. 10.0) +. (float_of_int (a mod drain_fan_in) *. 0.05)
      in
      En.schedule ~delay eng (fun () ->
          E.transmit net
            {
              E.src = a;
              dst = E.Unicast dst;
              payload = ();
              payload_bytes = drain_payload_bytes;
            })
    done
  done;
  En.run eng;
  let c = E.counters net in
  let peak_queue, busiest_label, busiest_pct =
    List.fold_left
      (fun (peak, lbl, pct) s ->
        let p = if En.now eng > 0.0 then s.E.ls_busy_ms /. En.now eng *. 100.0 else 0.0 in
        ( max peak s.E.ls_queue_peak,
          (if p > pct then s.E.ls_label else lbl),
          Float.max p pct ))
      (0, "-", 0.0) (E.link_stats net)
  in
  {
    delivered = c.E.frames_delivered;
    dropped = c.E.frames_dropped;
    sim_ms = En.now eng;
    events = En.last_run_events eng;
    peak_queue;
    busiest_label;
    busiest_pct;
  }

(* --- Phase B: kernel cohort soak on the switched fabric --- *)

let soak_fan_in = 64
let soak_cohort_size = 100 (* virtual clients per client host *)

type soak_result = {
  resolved : int;
  failed : int;
  live_hosts : int;
  soak_sim_ms : float;
  soak_events : int;
}

(* E12's gigabit links, but switched: each host uplink, edge and spine
   port serializes independently. With [Rig.telemetry_on], the fan-in-64
   fabric is what puts per-edge rollup rows in the telemetry
   artifact. *)
let soak () =
  let s =
    Rig.soak ~fan_in:soak_fan_in ~hosts:soak_hosts ~hosts_hint:(2 * soak_hosts)
      ~ops:soak_ops ~cohort_size:soak_cohort_size ~seed:1406
      ?telemetry:(if Rig.telemetry_on then Some (1406, 250.0) else None)
      ()
  in
  let eng = s.Rig.soak_eng in
  En.run eng;
  Option.iter (Rig.dump_telemetry "telemetry-e14.json") s.Rig.hub;
  {
    resolved = s.Rig.resolved;
    failed = s.Rig.failed;
    live_hosts =
      List.length (List.filter K.host_is_up (K.hosts s.Rig.soak_domain));
    soak_sim_ms = En.now eng;
    soak_events = En.last_run_events eng;
  }

let run () =
  Tables.print_title "E14: switched multi-segment fabric vs shared wire";
  Tables.note_meta ~seed:1406 ();

  Tables.print_section
    (Fmt.str
       "Phase A: %d hosts x %d cross-edge frames, 10Mb links, fan-in %d"
       soak_hosts drain_frames_per_host drain_fan_in);
  let shared = drain T.Shared_medium soak_hosts in
  let switched = drain (T.switched ~fan_in:drain_fan_in) soak_hosts in
  let expect = soak_hosts * drain_frames_per_host in
  if shared.delivered <> expect || shared.dropped <> 0 then
    failwith
      (Fmt.str "E14 drain (shared): %d/%d delivered, %d dropped"
         shared.delivered expect shared.dropped);
  if switched.delivered <> expect || switched.dropped <> 0 then
    failwith
      (Fmt.str "E14 drain (switched): %d/%d delivered, %d dropped"
         switched.delivered expect switched.dropped);
  let fps r = float_of_int r.delivered /. (r.sim_ms /. 1000.0) in
  let shared_fps = fps shared and switched_fps = fps switched in
  let speedup = switched_fps /. shared_fps in
  Tables.print_table
    ~header:
      [ "fabric"; "delivered"; "drain ms"; "frames/s"; "peak queue"; "busiest segment" ]
    [
      [
        "shared wire";
        Tables.count shared.delivered;
        Fmt.str "%.0f" shared.sim_ms;
        Fmt.str "%.0f" shared_fps;
        "-";
        "the wire";
      ];
      [
        "switched";
        Tables.count switched.delivered;
        Fmt.str "%.0f" switched.sim_ms;
        Fmt.str "%.0f" switched_fps;
        Tables.count switched.peak_queue;
        Fmt.str "%s (%.0f%%)" switched.busiest_label switched.busiest_pct;
      ];
    ];
  Tables.record
    (Vobs.Json.Obj
       [
         ("drain_shared_frames_per_s", Vobs.Json.Float shared_fps);
         ("drain_switched_frames_per_s", Vobs.Json.Float switched_fps);
         ("drain_speedup", Vobs.Json.Float speedup);
         ("drain_peak_queue", Vobs.Json.Int switched.peak_queue);
         ("drain_events", Vobs.Json.Int (shared.events + switched.events));
       ]);
  (* The acceptance floor is part of the experiment, not just the CI
     gate: a switched fabric that cannot double the shared wire's
     aggregate throughput at this scale is broken. *)
  if speedup < 2.0 then
    failwith (Fmt.str "E14: switched speedup %.2fx below the 2x floor" speedup);

  Tables.print_section
    (Fmt.str "Phase B: %d-host cohort soak on switched 1Gb links (%dk ops)"
       soak_hosts (soak_ops / 1000));
  let s = soak () in
  if s.failed > 0 then
    failwith (Fmt.str "E14 soak: %d transactions failed" s.failed);
  let sim_ops_per_s = float_of_int s.resolved /. (s.soak_sim_ms /. 1000.0) in
  Tables.print_table
    ~header:[ "quantity"; "value" ]
    [
      [ "hosts live at end"; Tables.count s.live_hosts ];
      [ "transactions resolved"; Tables.count s.resolved ];
      [ "engine events"; Tables.count s.soak_events ];
      [ "simulated span"; Fmt.str "%.0f ms" s.soak_sim_ms ];
    ];
  Tables.print_comparison
    [
      {
        Tables.label = "switched fabric speedup over shared wire (drain)";
        paper = None;
        measured = speedup;
        unit_ = "x";
      };
      {
        Tables.label = "switched soak resolved transactions/s (simulated time)";
        paper = None;
        measured = sim_ops_per_s;
        unit_ = "ops/s";
      };
    ]
