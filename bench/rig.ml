(* Shared helpers for the benchmark harness. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module C = Vnet.Calibration

(* A bare two-or-more-host kernel rig with string messages, for the raw
   IPC experiments (E1, E2). *)
type raw = {
  eng : Vsim.Engine.t;
  net : string K.packet E.t;
  domain : string K.domain;
}

let raw_cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

let make_raw ?(config = C.ethernet_3mbit) () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config eng in
  let domain = K.create_domain ~cost:raw_cost eng net in
  { eng; net; domain }

(* Run a one-shot measurement fiber and return what it produced. *)
let measure eng body =
  let result = ref None in
  Vsim.Proc.spawn eng (fun () -> result := Some (body ()));
  Vsim.Engine.run eng;
  match !result with
  | Some v -> v
  | None -> failwith "bench: measurement fiber did not complete"

(* A server that replies to every request with the request itself: the
   far end of the raw IPC rigs (E1, E12, E14, E15). *)
let echo_server host =
  K.spawn host ~name:"echo" (fun self ->
      let rec loop () =
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender msg);
        loop ()
      in
      loop ())

(* Gigabit links (E12, E14, E15). *)
let gigabit =
  {
    C.name = "1Gb switched";
    bandwidth_bps = 1.0e9;
    header_bytes = 64;
    propagation_ms = 0.005;
  }

(* VSYSTEM_TELEMETRY=1 (the nightly lane) attaches the scale-telemetry
   stack to E12's and E14's soaks and dumps the artifact. Telemetry
   schedules nothing, so every simulated number is unchanged. *)
let telemetry_on =
  match Sys.getenv_opt "VSYSTEM_TELEMETRY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let fail_verr what e = failwith (Fmt.str "%s: %a" what Vio.Verr.pp e)

let ok what = function Ok v -> v | Error e -> fail_verr what e

(* --- the repeated Open (E4, E8, E11) --- *)

(* A mean Open latency, and the file server's own mean per-request
   specific time (directory lookup + instance creation) over the same
   requests, as the server measures it. *)
type open_ms = { raw : float; specific : float }

(* Open [name] from [env] [repeats] times, releasing each instance.
   [specific] reads [server]'s figures, 0 without one. *)
let open_ms ?server env name ~repeats =
  let module Series = Vsim.Stats.Series in
  let eng = Vruntime.Runtime.engine env in
  let series =
    Option.map
      (fun fs -> (Vservices.File_server.stats fs).Vnaming.Csnh.specific_ms)
      server
  in
  let count_sum () =
    match series with
    | Some s -> (Series.count s, Series.sum s)
    | None -> (0, 0.0)
  in
  let n0, s0 = count_sum () in
  let total = ref 0.0 in
  for _ = 1 to repeats do
    let t0 = Vsim.Engine.now eng in
    let instance =
      ok "open" (Vruntime.Runtime.open_ env ~mode:Vnaming.Vmsg.Read name)
    in
    total := !total +. (Vsim.Engine.now eng -. t0);
    ok "release" (Vio.Client.release (Vruntime.Runtime.self env) instance)
  done;
  let n1, s1 = count_sum () in
  {
    raw = !total /. float_of_int repeats;
    specific = (if n1 > n0 then (s1 -. s0) /. float_of_int (n1 - n0) else 0.0);
  }

(* --- the echo-cohort soak (E12, E14, E15) --- *)

(* The full scale-telemetry stack: a traced hub with 1-in-64 head
   sampling drawn from [seed], a time-series store, and the kernel
   telemetry pump every [interval_ms], which groups the metrics store
   by edge switch. *)
let attach_telemetry domain ~seed ~interval_ms =
  let hub = Vobs.Hub.create ~tracing:true () in
  Vobs.Hub.set_head_sampling hub ~every:64 ~seed;
  Vobs.Hub.set_timeseries hub (Some (Vobs.Timeseries.create ()));
  K.set_obs domain hub;
  K.enable_telemetry domain ~interval_ms;
  hub

let dump_telemetry file hub =
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Vobs.Json.to_string (Vobs.Export.telemetry_to_json hub));
      output_char oc '\n');
  Fmt.pr "telemetry dump written to %s@." file

type soak = {
  soak_eng : Vsim.Engine.t;
  soak_domain : string K.domain;
  hub : Vobs.Hub.t option;
  mutable resolved : int;
  mutable failed : int;
}

(* A soak of [hosts] hosts on gigabit links: the first half run echo
   servers, the rest one cohort each of [cohort_size] Poisson clients
   (10 s mean think time per client; {!Vworkload.Generator.cohort})
   drawn from [seed], which sends its share of [ops] pings to a server
   by pid: a broadcast costs O(hosts) deliveries, so name resolution is
   assumed cached. On a switched fabric of [fan_in] the server is
   [fan_in] hosts on, so every ping crosses the spine; on the shared
   wire it is the one beside. [telemetry] is [attach_telemetry]'s seed
   and interval; [traced] makes every ping a root trace on its hub with
   a latency observation. The caller runs [soak_eng]. *)
let soak ?fan_in ?telemetry ?(traced = false) ~hosts ~hosts_hint ~ops
    ~cohort_size ~seed () =
  let module G = Vworkload.Generator in
  let servers_n = hosts / 2 in
  let clients_n = hosts - servers_n in
  let eng = Vsim.Engine.create () in
  let net =
    E.create ~config:gigabit
      ?topology:(Option.map (fun n -> Vnet.Topology.switched ~fan_in:n) fan_in)
      eng
  in
  let domain = K.create_domain ~hosts_hint ~cost:raw_cost eng net in
  let hub =
    Option.map
      (fun (seed, interval_ms) -> attach_telemetry domain ~seed ~interval_ms)
      telemetry
  in
  let s =
    { soak_eng = eng; soak_domain = domain; hub; resolved = 0; failed = 0 }
  in
  let observe = if traced then hub else None in
  let prng = Vsim.Prng.create ~seed in
  let servers =
    Array.init servers_n (fun i ->
        echo_server (K.boot_host domain ~name:(Fmt.str "srv%d" i) (i + 1)))
  in
  let ops_per_host = max 1 (ops / clients_n) in
  for i = 0 to clients_n - 1 do
    let name = Fmt.str "cli%d" i in
    let host = K.boot_host domain ~name (servers_n + i + 1) in
    let cohort =
      G.cohort ~size:cohort_size ~mean_gap_ms:10_000.0 (Vsim.Prng.split prng)
    in
    let server =
      servers.((i + Option.value fan_in ~default:0) mod servers_n)
    in
    ignore
      (K.spawn host ~name:"cohort" (fun self ->
           let ping () =
             match K.send self server "ping" with
             | Ok _ -> s.resolved <- s.resolved + 1
             | Error _ -> s.failed <- s.failed + 1
           in
           for _ = 1 to ops_per_host do
             Vsim.Proc.delay eng (G.cohort_next_gap cohort);
             match observe with
             | None -> ping ()
             | Some h ->
                 (* Head sampling decides the trace's fate with the
                    hub's own PRNG, drawing nothing from the workload's;
                    kept trace ids become exemplar candidates. *)
                 let t0 = Vsim.Engine.now eng in
                 let ctx = Vobs.Hub.start_trace h ~now:t0 in
                 ping ();
                 let trace =
                   if ctx.Vobs.Span.trace > 0 then Some ctx.Vobs.Span.trace
                   else None
                 in
                 Vobs.Metrics.observe ?trace (Vobs.Hub.metrics h) ~host:name
                   ~server:"echo" ~op:"rpc"
                   (Vsim.Engine.now eng -. t0)
           done))
  done;
  s
