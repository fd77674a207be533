(* Outside probes: host CPU time of each layer's public entry points,
   driven on the workload's own inputs. They stand in for spans inside
   the program, which do not exist yet; whatever host time they cannot
   see shows up as [host.attributed_share] below 1.

   Every probe repeats its measurement three times and reports the
   median, and reports the lower-layer work it contains (engine events,
   frames) so the caller can subtract it and charge each layer only its
   own share. *)

module W = Workload
module Engine = Vsim.Engine
module Prng = Vsim.Prng
module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module Csnh = Vnaming.Csnh
module Csname = Vnaming.Csname
module Context = Vnaming.Context
module Name_cache = Vnaming.Name_cache
module Fs = Vservices.Fs

type t = {
  ns_per_event : float;
  words_per_event : float;
  ns_per_frame : float;
  events_per_frame : float;
  ns_per_txn : float;
  events_per_txn : float;
  frames_per_txn : float;
  ns_per_walk : float;
  ns_per_cache_find : float;
}

(* Run [f] three times; it returns (units of work, engine events
   executed or cancelled, frames). Host ns and minor words per unit are
   the medians; the per-unit event and frame counts are deterministic,
   so any run's serve. *)
let measure f =
  let runs =
    Array.init 3 (fun _ ->
        let w0 = Gc.minor_words () and c0 = Sys.time () in
        let units, events, frames = f () in
        let c1 = Sys.time () and w1 = Gc.minor_words () in
        let n = float_of_int (max 1 units) in
        ( (c1 -. c0) *. 1e9 /. n,
          (w1 -. w0) /. n,
          float_of_int events /. n,
          float_of_int frames /. n ))
  in
  let median g =
    let a = Array.map g runs in
    Array.sort compare a;
    a.(1)
  in
  let _, _, events, frames = runs.(0) in
  ( median (fun (ns, _, _, _) -> ns),
    median (fun (_, w, _, _) -> w),
    events,
    frames )

let engine_events eng = Engine.executed eng + Engine.cancelled_timers eng

(* The E12 timer storm: each transaction arms a retransmission and a
   timeout timer and cancels both when its reply lands. The unit is
   one engine event, executed or cancelled. *)
let storm ~scale () =
  let eng = Engine.create () in
  let workers = 2000 and ops = max 2 (int_of_float (25.0 *. scale)) in
  for w = 0 to workers - 1 do
    let n = ref 0 in
    let rec issue () =
      incr n;
      let retransmit =
        Engine.timer ~delay:C.retransmit_interval_ms eng ignore
      in
      let timeout = Engine.timer ~delay:C.ipc_timeout_ms eng ignore in
      Engine.schedule ~delay:2.6 eng (fun () ->
          Engine.cancel eng retransmit;
          Engine.cancel eng timeout;
          if !n < ops then issue ())
    in
    Engine.schedule ~delay:(float_of_int w *. 0.013) eng issue
  done;
  Engine.run eng;
  (engine_events eng, engine_events eng, 0)

(* The workload's fabric and host addresses. *)
let fabric (spec : W.spec) =
  match spec.W.kind with
  | W.Ipc_fabric ->
      ( W.gigabit,
        T.switched ~fan_in:W.ipc_fan_in,
        Array.init (W.echo_servers + W.client_hosts) (fun i -> i + 1) )
  | W.Prefix_open | W.Cached_zipf | W.Replica_write ->
      ( C.ethernet_10mbit,
        T.switched ~fan_in:W.naming_fan_in,
        Array.append
          (Array.init W.workstations Vworkload.Scenario.ws_addr)
          (Array.init W.file_servers Vworkload.Scenario.fs_addr) )

(* Frames between random host pairs of the workload's fabric, paced
   below link capacity so no port drops. *)
let frames spec ~scale ~seed =
  let config, topology, addrs = fabric spec in
  let frames = max 100 (int_of_float (20_000.0 *. scale)) in
  let eng = Engine.create () in
  let net = E.create ~config ~topology eng in
  Array.iter (fun a -> E.attach net a ignore) addrs;
  let prng = Prng.create ~seed in
  for i = 0 to frames - 1 do
    let pick () = addrs.(Prng.int prng (Array.length addrs)) in
    let src = pick () in
    let dst = pick () in
    let dst = if dst = src then addrs.(0) else dst in
    let src = if dst = src then addrs.(1) else src in
    Engine.schedule ~delay:(float_of_int i *. 0.5) eng (fun () ->
        E.transmit net
          { E.src; dst = E.Unicast dst; payload = (); payload_bytes = 96 })
  done;
  Engine.run eng;
  (frames, engine_events eng, frames)

(* Sequential echo transactions between client/server host pairs of the
   workload's fabric: first and last addresses, so pairs cross edges. *)
let echo spec ~scale =
  let config, topology, addrs = fabric spec in
  let pairs = 16 and per_pair = max 5 (int_of_float (500.0 *. scale)) in
  let eng = Engine.create () in
  let net = E.create ~config ~topology eng in
  let domain = K.create_domain ~cost:W.raw_cost eng net in
  let n = Array.length addrs in
  for p = 0 to pairs - 1 do
    let server =
      W.echo_server (K.boot_host domain ~name:(Fmt.str "s%d" p) addrs.(p))
    in
    let host = K.boot_host domain ~name:(Fmt.str "c%d" p) addrs.(n - 1 - p) in
    ignore
      (K.spawn host ~name:"probe" (fun self ->
           for k = 1 to per_pair do
             match K.send self server (string_of_int k) with
             | Ok _ -> ()
             | Error e -> failwith (Fmt.str "echo probe: %a" K.pp_error e)
           done))
  done;
  Engine.run eng;
  (pairs * per_pair, engine_events eng, (E.counters net).E.frames_sent)

(* The naming names of the installation, walked on a standalone copy of
   its populated file systems with [Csnh.walk] and a plain directory
   lookup, outside any simulated process. *)
let naming_inputs () =
  let t, names, _ =
    W.build_naming ~lap:ignore ~replicated:false ~tracing:false
  in
  let fss = Vworkload.Scenario.(t.file_servers) in
  (Array.map Vservices.File_server.fs fss, names)

let split_prefix name =
  let close = String.index name ']' in
  ( int_of_string (String.sub name 3 (close - 3)),
    String.sub name (close + 1) (String.length name - close - 1) )

let walks fss names ~count =
  let base = Context.Well_known.first_ordinary in
  let inputs =
    Array.map
      (fun name ->
        let k, rel = split_prefix name in
        (fss.(k), Csname.make_req ~context:Context.Well_known.default rel))
      names
  in
  for i = 0 to count - 1 do
    let fs, req = inputs.(i mod Array.length inputs) in
    let ino ctx =
      if ctx = Context.Well_known.default then Fs.root_ino else ctx - base
    in
    let lookup ctx component =
      match Fs.lookup fs ~dir:(ino ctx) component with
      | Some (Fs.Dir_entry d) -> Csnh.Descend (d + base)
      | Some (Fs.File_entry _ | Fs.Remote_link _) | None -> Csnh.Stop
    in
    match Csnh.walk ~valid_context:(fun _ -> true) ~lookup req with
    | Csnh.Local _ -> ()
    | Csnh.Forward _ | Csnh.Fail _ -> failwith "walk probe: unexpected outcome"
  done;
  (count, 0, 0)

(* A client cache of [W.cache_capacity] filled with the directory
   bindings of the most popular names, then looked up along a Zipf
   stream over all names — the cached-zipf client's access pattern. *)
let cache_finds names ~count ~seed =
  let cache = Name_cache.create ~capacity:W.cache_capacity () in
  let server = Vkernel.Pid.make ~logical_host:1 ~local_pid:1 in
  let spec = Context.spec ~server ~context:0 in
  Array.iteri
    (fun i name ->
      if i < W.cache_capacity then
        match String.rindex_opt name '/' with
        | Some cut ->
            ignore (Name_cache.learn cache (String.sub name 0 cut) spec)
        | None -> ())
    names;
  let module G = Vworkload.Generator in
  let cum = G.zipf_cumulative ~s:W.zipf_s (Array.length names) in
  let prng = Prng.create ~seed in
  let stream = Array.init 4096 (fun _ -> names.(G.zipf_pick prng cum)) in
  for i = 0 to count - 1 do
    ignore (Name_cache.find cache stream.(i land 4095))
  done;
  (count, 0, 0)

let run spec ~scale ~seed =
  let ns_per_event, words_per_event, _, _ = measure (storm ~scale) in
  let ns_per_frame, _, events_per_frame, _ =
    measure (fun () -> frames spec ~scale ~seed)
  in
  let ns_per_txn, _, events_per_txn, frames_per_txn =
    measure (fun () -> echo spec ~scale)
  in
  let fss, names = naming_inputs () in
  let count = max 1000 (int_of_float (200_000.0 *. scale)) in
  let ns_per_walk, _, _, _ = measure (fun () -> walks fss names ~count) in
  let ns_per_cache_find, _, _, _ =
    measure (fun () -> cache_finds names ~count ~seed)
  in
  {
    ns_per_event;
    words_per_event;
    ns_per_frame;
    events_per_frame;
    ns_per_txn;
    events_per_txn;
    frames_per_txn;
    ns_per_walk;
    ns_per_cache_find;
  }
