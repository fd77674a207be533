(* Simulated network fabric.

   Two topologies share one interface (see {!Topology}):

   - [Shared_medium] (the default): the paper's single wire. A
     transmission waits until the medium is free, then propagates to
     the destination host(s). This path is kept bit-for-bit identical
     to the pre-fabric model: one [wire_free_at], one PRNG draw per
     frame, the same event schedule.

   - [Switched { fan_in }]: hosts hang off edge switches, edges uplink
     to one spine, and every directed link owns its own [l_free_at] —
     independent segments carry traffic concurrently. Each hop is
     store-and-forward: the frame serializes onto the link, propagates,
     pays {!Calibration.switch_forward_ms} on entering a switch, and is
     replicated at switches for broadcast/multicast fan-out (one copy
     per link, not per destination). Each link has a bounded output
     queue: a frame arriving at a full port is tail-dropped and
     counted, per link and globally.

   Host CPU costs for building and consuming packets are charged by the
   kernel layer, not here; the network charges only queueing +
   transmission + propagation (+ per-switch forwarding in the switched
   fabric).

   The payload type is a parameter so this library sits below the
   kernel: the kernel instantiates ['a t] with its packet type. *)

type addr = int

type dest = Unicast of addr | Broadcast | Multicast of int

let pp_dest ppf = function
  | Unicast a -> Fmt.pf ppf "host%d" a
  | Broadcast -> Fmt.string ppf "broadcast"
  | Multicast g -> Fmt.pf ppf "group%d" g

type 'a frame = { src : addr; dst : dest; payload : 'a; payload_bytes : int }

type counters = {
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable frames_dropped : int;
  mutable bytes_sent : int;
}

type 'a host_port = {
  host_addr : addr;
  mutable up : bool;
  mutable handler : 'a frame -> unit;
  mutable extra_latency_ms : float;
      (* slow-host fault injection: added to every frame's arrival *)
  (* Per-frame wire counters accumulate in place — the port record is
     already in cache on every transmit/delivery, so counting costs one
     register add and no branch. [flush_metrics] moves the deltas into
     the registry at scrape time (the Prometheus model: instrument
     locally, aggregate on scrape). *)
  mutable p_sent : int;
  mutable p_bytes : int;
  mutable p_delivered : int;
  mutable p_sent_flushed : int;
  mutable p_bytes_flushed : int;
  mutable p_delivered_flushed : int;
  mutable hot : Vobs.Metrics.counter array;
      (* cached flush handles: [|sent; bytes; delivered|], bound on
         first flush with a hub attached, cleared by set_obs *)
}

(* One directed link of the switched fabric. [l_queued] counts frames
   occupying the port — queued, serializing or in flight — and is what
   the bounded-queue admission check reads; [l_busy_ms] accumulates
   serialization time for utilization accounting. *)
type link = {
  link_id : Topology.node * Topology.node;
  mutable l_up : bool;
  mutable l_free_at : float;
  mutable l_queued : int;
  mutable l_queue_peak : int;
  mutable l_frames : int;
  mutable l_drops : int;  (* tail drops + frames dying on a down link *)
  mutable l_busy_ms : float;
  mutable l_extra_ms : float;  (* slow-link fault injection, per hop *)
  mutable l_busy_sampled : float;  (* l_busy_ms at the last ts sample *)
}

(* Materialized links by one endpoint's number, for the hop path: host
   [a]'s uplink and its edge's port towards it are indexed by [a], an
   edge's spine uplink and the spine's port towards it by the edge's
   number. A slot holds [no_link] until [get_link] materializes the
   link, which also files it in [links] — the table [link_stats] and the
   telemetry pump read — so indexing changes neither when a link
   materializes nor what it reports. *)
type link_index = { mutable by_id : link array }

type link_stat = {
  ls_label : string;
  ls_up : bool;
  ls_frames : int;
  ls_drops : int;
  ls_queued : int;
  ls_queue_peak : int;
  ls_busy_ms : float;
  ls_extra_ms : float;
}

type 'a t = {
  engine : Vsim.Engine.t;
  config : Calibration.network;
  topology : Topology.t;
  queue_cap : int;
  prng : Vsim.Prng.t;
  hosts : (addr, 'a host_port) Hashtbl.t;
  groups : (int, (addr, unit) Hashtbl.t) Hashtbl.t;
  mutable wire_free_at : float;  (* Shared_medium only *)
  links : (Topology.node * Topology.node, link) Hashtbl.t;  (* Switched only *)
  host_uplinks : link_index;  (* host a -> its edge, by a *)
  host_downlinks : link_index;  (* edge -> host a, by a *)
  edge_uplinks : link_index;  (* edge e -> spine, by e *)
  edge_downlinks : link_index;  (* spine -> edge e, by e *)
  mutable links_down : int;  (* links with [l_up = false] *)
  mutable loss_probability : float;
  (* Unordered host pairs that cannot exchange frames. *)
  mutable partitions : (addr * addr) list;
  counters : counters;
  mutable trace : Vsim.Trace.t option;
  mutable obs : Vobs.Hub.t option;
  mutable last_ts_sample : float;  (* when sample_timeseries last ran *)
  (* Interior (switch-to-switch) links with their three prebuilt series
     names, so a pump firing walks ~O(edges) records and allocates no
     strings. Links materialize lazily, so [get_link] invalidates. *)
  mutable ts_interior : (string * string * string * link) list option;
}

let create ?(seed = 1) ?(topology = Topology.Shared_medium) ?(queue_cap = 256)
    ~config engine =
  if queue_cap < 1 then invalid_arg "Ethernet.create: queue_cap must be >= 1";
  {
    engine;
    config;
    topology;
    queue_cap;
    prng = Vsim.Prng.create ~seed;
    hosts = Hashtbl.create 16;
    groups = Hashtbl.create 16;
    wire_free_at = 0.0;
    links = Hashtbl.create 64;
    host_uplinks = { by_id = [||] };
    host_downlinks = { by_id = [||] };
    edge_uplinks = { by_id = [||] };
    edge_downlinks = { by_id = [||] };
    links_down = 0;
    loss_probability = 0.0;
    partitions = [];
    counters =
      { frames_sent = 0; frames_delivered = 0; frames_dropped = 0; bytes_sent = 0 };
    trace = None;
    obs = None;
    last_ts_sample = 0.0;
    ts_interior = None;
  }

let set_trace t trace = t.trace <- Some trace
let set_obs t hub =
  t.obs <- Some hub;
  (* Cached per-frame handles belong to the previous hub's registry. *)
  Hashtbl.iter (fun _ port -> port.hot <- [||]) t.hosts

(* Per-host wire metrics, keyed under server "net". The address stands
   in for the host name — this layer sits below the kernel and has no
   better label. *)
let net_metric ?(by = 1) t addr op =
  match t.obs with
  | None -> ()
  | Some hub ->
      Vobs.Metrics.incr (Vobs.Hub.metrics hub) ~by
        ~host:(Printf.sprintf "host%d" addr)
        ~server:"net" ~op

(* The per-frame counters (sent, bytes, delivered — every frame pays
   them) accumulate on the port record itself; [flush_metrics] moves
   the deltas into the registry through handles cached on the port.
   Rarer paths (drops, losses) stay on the keyed [net_metric]. *)
let hot_sent = 0

let hot_bytes = 1
let hot_delivered = 2

let port_handles t port =
  if Array.length port.hot > 0 then port.hot
  else begin
    match t.obs with
    | None -> [||]
    | Some hub ->
        let m = Vobs.Hub.metrics hub in
        let host = Printf.sprintf "host%d" port.host_addr in
        let mk op = Vobs.Metrics.counter m ~host ~server:"net" ~op in
        let hot =
          [| mk "frames-sent"; mk "bytes-sent"; mk "frames-delivered" |]
        in
        port.hot <- hot;
        hot
  end

(* Move each port's wire-counter deltas since the previous flush into
   the registry. Called at scrape points (exports, the kernel pump's
   owner), never per frame; pure bookkeeping, so a flush at any instant
   leaves simulated behaviour untouched. *)
let flush_metrics t =
  match t.obs with
  | None -> ()
  | Some _ ->
      Hashtbl.iter
        (fun _ port ->
          if
            port.p_sent > port.p_sent_flushed
            || port.p_bytes > port.p_bytes_flushed
            || port.p_delivered > port.p_delivered_flushed
          then begin
            let hot = port_handles t port in
            if Array.length hot > 0 then begin
              Vobs.Metrics.add ~by:(port.p_sent - port.p_sent_flushed)
                hot.(hot_sent);
              Vobs.Metrics.add ~by:(port.p_bytes - port.p_bytes_flushed)
                hot.(hot_bytes);
              Vobs.Metrics.add
                ~by:(port.p_delivered - port.p_delivered_flushed)
                hot.(hot_delivered);
              port.p_sent_flushed <- port.p_sent;
              port.p_bytes_flushed <- port.p_bytes;
              port.p_delivered_flushed <- port.p_delivered
            end
          end)
        t.hosts

(* Allocation guards for the per-frame paths, as in the kernel:
   applying [net_event]/[trace_emit] to a format builds closures (and
   the host label) even when the sink is off, so per-frame sites test
   these first. *)
let events_on t =
  match t.obs with
  | Some hub -> Vobs.Eventlog.enabled (Vobs.Hub.events hub)
  | None -> false

let tracing t = match t.trace with Some _ -> true | None -> false

(* Flight-recorder events for the wire: frames lost or dropped,
   partitions cut and healed, loss-rate and slow-host changes. The
   label is only built when an attached hub's recorder is enabled;
   [host] is "host<addr>" for per-host events, "net" for wire-wide
   ones. *)
let net_event t host fmt =
  match t.obs with
  | Some hub when Vobs.Eventlog.enabled (Vobs.Hub.events hub) ->
      Format.kasprintf
        (fun label ->
          Vobs.Hub.event hub
            ~at:(Vsim.Engine.now t.engine)
            ~cat:Vobs.Eventlog.Net ~host label)
        fmt
  | Some _ | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let host_label addr = Printf.sprintf "host%d" addr

let config t = t.config

let topology t = t.topology

let queue_capacity t =
  match t.topology with
  | Topology.Shared_medium -> None
  | Topology.Switched _ -> Some t.queue_cap

let counters t = t.counters

let engine t = t.engine

exception Duplicate_host of addr

let attach t addr handler =
  if Hashtbl.mem t.hosts addr then raise (Duplicate_host addr);
  Hashtbl.replace t.hosts addr
    {
      host_addr = addr;
      up = true;
      handler;
      extra_latency_ms = 0.0;
      p_sent = 0;
      p_bytes = 0;
      p_delivered = 0;
      p_sent_flushed = 0;
      p_bytes_flushed = 0;
      p_delivered_flushed = 0;
      hot = [||];
    }

let set_handler t addr handler =
  match Hashtbl.find_opt t.hosts addr with
  | None -> invalid_arg "Ethernet.set_handler: unknown host"
  | Some port -> port.handler <- handler

let host_up t addr =
  match Hashtbl.find_opt t.hosts addr with Some p -> p.up | None -> false

let set_host_up t addr up =
  match Hashtbl.find_opt t.hosts addr with
  | None -> invalid_arg "Ethernet.set_host_up: unknown host"
  | Some port -> port.up <- up

let hosts t = Hashtbl.fold (fun addr _ acc -> addr :: acc) t.hosts [] |> List.sort compare

(* --- multicast groups --- *)

let group_members t group =
  match Hashtbl.find_opt t.groups group with
  | None -> []
  | Some members ->
      Hashtbl.fold (fun a () acc -> a :: acc) members [] |> List.sort compare

let fold_group t group f init =
  match Hashtbl.find_opt t.groups group with
  | None -> init
  | Some members -> Hashtbl.fold (fun a () acc -> f a acc) members init

let join_group t ~group ~addr =
  let members =
    match Hashtbl.find_opt t.groups group with
    | Some m -> m
    | None ->
        let m = Hashtbl.create 4 in
        Hashtbl.replace t.groups group m;
        m
  in
  Hashtbl.replace members addr ()

let leave_group t ~group ~addr =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some members -> Hashtbl.remove members addr

(* --- the switched fabric's links --- *)

(* Marks an index slot whose link has not materialized; never mutated. *)
let no_link =
  {
    link_id = (Topology.Spine, Topology.Spine);
    l_up = false;
    l_free_at = 0.0;
    l_queued = 0;
    l_queue_peak = 0;
    l_frames = 0;
    l_drops = 0;
    l_busy_ms = 0.0;
    l_extra_ms = 0.0;
    l_busy_sampled = 0.0;
  }

let indexed idx i = if i < Array.length idx.by_id then idx.by_id.(i) else no_link

let index idx i l =
  let n = Array.length idx.by_id in
  if i >= n then begin
    let grown = Array.make (max (i + 1) (2 * n)) no_link in
    Array.blit idx.by_id 0 grown 0 n;
    idx.by_id <- grown
  end;
  idx.by_id.(i) <- l

(* Links materialize on first use: the host population is dynamic, so
   the fabric cannot enumerate its ports up front. *)
let get_link t key =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          link_id = key;
          l_up = true;
          l_free_at = 0.0;
          l_queued = 0;
          l_queue_peak = 0;
          l_frames = 0;
          l_drops = 0;
          l_busy_ms = 0.0;
          l_extra_ms = 0.0;
          l_busy_sampled = 0.0;
        }
      in
      Hashtbl.replace t.links key l;
      (match key with
      | Topology.Host h, Topology.Edge _ -> index t.host_uplinks h l
      | Topology.Edge _, Topology.Host h -> index t.host_downlinks h l
      | Topology.Edge e, Topology.Spine -> index t.edge_uplinks e l
      | Topology.Spine, Topology.Edge e -> index t.edge_downlinks e l
      | _ -> ());
      (* Keep the pump's interior-link cache coherent incrementally:
         host links (the overwhelming majority) never touch it, and a
         fresh interior link appends rather than forcing a rebuild. *)
      (match (key, t.ts_interior) with
      | ((Topology.Host _, _ | _, Topology.Host _), _) | _, None -> ()
      | _, Some cached ->
          let label = Topology.link_label key in
          t.ts_interior <-
            Some
              (( "link/" ^ label ^ "/utilization-pct",
                 "link/" ^ label ^ "/queue",
                 "link/" ^ label ^ "/drops",
                 l )
              :: cached));
      l

(* The hop path's lookups: one array read once the link exists; the
   (node, node) key is built only to materialize it. *)
let host_uplink t a e =
  let l = indexed t.host_uplinks a in
  if l != no_link then l else get_link t (Topology.Host a, Topology.Edge e)

let host_downlink t e a =
  let l = indexed t.host_downlinks a in
  if l != no_link then l else get_link t (Topology.Edge e, Topology.Host a)

let edge_uplink t e =
  let l = indexed t.edge_uplinks e in
  if l != no_link then l else get_link t (Topology.Edge e, Topology.Spine)

let edge_downlink t e =
  let l = indexed t.edge_downlinks e in
  if l != no_link then l else get_link t (Topology.Spine, Topology.Edge e)

let require_link t what (a, b) =
  (match t.topology with
  | Topology.Switched _ -> ()
  | Topology.Shared_medium ->
      invalid_arg (what ^ ": the shared medium has no links"));
  if not (Topology.is_link t.topology (a, b)) then
    invalid_arg
      (Fmt.str "%s: %a is not a link of this topology" what Topology.pp_link
         (a, b));
  get_link t (a, b)

let set_link_up t a b up =
  let l = require_link t "Ethernet.set_link_up" (a, b) in
  if l.l_up <> up then begin
    l.l_up <- up;
    t.links_down <- (t.links_down + if up then -1 else 1);
    net_event t "net" "link %a %s" Topology.pp_link (a, b)
      (if up then "up" else "down")
  end

(* An untouched link is up; only materialized links can be down. *)
let path_link_up t key =
  match Hashtbl.find_opt t.links key with Some l -> l.l_up | None -> true

let link_up t a b =
  match t.topology with
  | Topology.Shared_medium -> true
  | Topology.Switched _ ->
      Topology.is_link t.topology (a, b) && path_link_up t (a, b)

let set_link_extra_latency t a b ms =
  if ms < 0.0 then invalid_arg "Ethernet.set_link_extra_latency";
  let l = require_link t "Ethernet.set_link_extra_latency" (a, b) in
  l.l_extra_ms <- ms;
  net_event t "net" "link %a extra latency := %.3fms" Topology.pp_link (a, b) ms

let link_extra_latency t a b =
  match Hashtbl.find_opt t.links (a, b) with
  | Some l -> l.l_extra_ms
  | None -> 0.0

let link_stats t =
  Hashtbl.fold
    (fun key l acc ->
      {
        ls_label = Topology.link_label key;
        ls_up = l.l_up;
        ls_frames = l.l_frames;
        ls_drops = l.l_drops;
        ls_queued = l.l_queued;
        ls_queue_peak = l.l_queue_peak;
        ls_busy_ms = l.l_busy_ms;
        ls_extra_ms = l.l_extra_ms;
      }
      :: acc)
    t.links []
  |> List.sort (fun a b -> compare a.ls_label b.ls_label)

(* Per-segment utilization into the metrics registry, as gauges keyed
   (link label, "net", op): utilization is serialization time over the
   clock so far, in percent. Gauges are idempotent — call at sampling
   points (vsh `net stats`, the E14 harness), not per frame. *)
let export_link_metrics t =
  match t.obs with
  | None -> ()
  | Some hub ->
      let m = Vobs.Hub.metrics hub in
      let now = Vsim.Engine.now t.engine in
      List.iter
        (fun s ->
          let pct = if now > 0.0 then s.ls_busy_ms /. now *. 100.0 else 0.0 in
          Vobs.Metrics.set_gauge m ~host:s.ls_label ~server:"net"
            ~op:"utilization-pct" pct;
          Vobs.Metrics.set_gauge m ~host:s.ls_label ~server:"net"
            ~op:"queue-peak"
            (float_of_int s.ls_queue_peak);
          Vobs.Metrics.set_gauge m ~host:s.ls_label ~server:"net" ~op:"drops"
            (float_of_int s.ls_drops))
        (link_stats t)

(* Feed the fabric's interior links (edge<->spine — the segments whose
   saturation explains a fleet-wide stall) into a time-series store:
   utilization over the interval since the previous sample (a gauge —
   this is the heatmap row), instantaneous queue occupancy (gauge), and
   cumulative drops (counter). Interior-only keeps the series count
   O(edges) instead of O(hosts); access-link health still reaches the
   rollup via {!export_link_metrics}. Call at sampling points (the
   kernel telemetry pump), never per frame. *)
let interior_links t =
  match t.ts_interior with
  | Some cached -> cached
  | None ->
      let cached =
        Hashtbl.fold
          (fun key l acc ->
            match key with
            | Topology.Host _, _ | _, Topology.Host _ -> acc
            | _ ->
                let label = Topology.link_label key in
                ( "link/" ^ label ^ "/utilization-pct",
                  "link/" ^ label ^ "/queue",
                  "link/" ^ label ^ "/drops",
                  l )
                :: acc)
          t.links []
      in
      t.ts_interior <- Some cached;
      cached

let sample_timeseries t ts ~now =
  let interval = now -. t.last_ts_sample in
  List.iter
    (fun (s_util, s_queue, s_drops, l) ->
      let busy = l.l_busy_ms -. l.l_busy_sampled in
      l.l_busy_sampled <- l.l_busy_ms;
      let pct = if interval > 0.0 then busy /. interval *. 100.0 else 0.0 in
      Vobs.Timeseries.sample ts s_util Vobs.Timeseries.Gauge ~now pct;
      Vobs.Timeseries.sample ts s_queue Vobs.Timeseries.Gauge ~now
        (float_of_int l.l_queued);
      Vobs.Timeseries.sample ts s_drops Vobs.Timeseries.Counter ~now
        (float_of_int l.l_drops))
    (interior_links t);
  t.last_ts_sample <- now

(* --- fault injection --- *)

let trace_emit t fmt =
  match t.trace with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some tr -> Vsim.Trace.emit tr ~category:"net" fmt

let set_loss_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Ethernet.set_loss_probability";
  t.loss_probability <- p;
  (* Audit trail: fault plans that flip the loss rate leave a record in
     the trace stream, the flight recorder and the metrics gauge. *)
  trace_emit t "loss probability := %.3f" p;
  net_event t "net" "loss probability := %.3f" p;
  match t.obs with
  | None -> ()
  | Some hub ->
      Vobs.Metrics.set_gauge (Vobs.Hub.metrics hub) ~host:"net" ~server:"net"
        ~op:"loss-probability" p

let loss_probability t = t.loss_probability

let set_extra_latency t addr ms =
  if ms < 0.0 then invalid_arg "Ethernet.set_extra_latency";
  match Hashtbl.find_opt t.hosts addr with
  | None -> invalid_arg "Ethernet.set_extra_latency: unknown host"
  | Some port ->
      port.extra_latency_ms <- ms;
      trace_emit t "host%d extra receive latency := %.3fms" addr ms;
      net_event t (host_label addr) "extra receive latency := %.3fms" ms

let extra_latency t addr =
  match Hashtbl.find_opt t.hosts addr with
  | Some port -> port.extra_latency_ms
  | None -> 0.0

let partition t a b =
  let pair = if a < b then (a, b) else (b, a) in
  if not (List.mem pair t.partitions) then begin
    t.partitions <- pair :: t.partitions;
    net_event t "net" "partition host%d <-> host%d" (fst pair) (snd pair)
  end

let heal t a b =
  let pair = if a < b then (a, b) else (b, a) in
  if List.mem pair t.partitions then begin
    t.partitions <- List.filter (fun p -> p <> pair) t.partitions;
    net_event t "net" "heal host%d <-> host%d" (fst pair) (snd pair)
  end

let heal_all t = t.partitions <- []

let partitioned t a b =
  let pair = if a < b then (a, b) else (b, a) in
  List.mem pair t.partitions

(* Can frames flow from [a] to [b]? Host-pair partitions apply in both
   topologies; the switched fabric additionally requires every directed
   link on the path to be up. The kernel's reachability probes ask this
   instead of [partitioned], so a cut uplink times transactions out the
   same way a partition does.

   The replica lookups ask this once per group member on every write,
   so it builds no path: the switched check reads the two to four
   directed links of host -> edge (-> spine -> edge) -> host in place,
   and skips even that while no link anywhere is down. *)
let reachable t a b =
  (match t.partitions with [] -> true | _ -> not (partitioned t a b))
  &&
  match t.topology with
  | Topology.Shared_medium -> true
  | Topology.Switched { fan_in } ->
      let ea = Topology.edge_of ~fan_in a and eb = Topology.edge_of ~fan_in b in
      t.links_down = 0
      || path_link_up t (Topology.Host a, Topology.Edge ea)
         && (ea = eb
            || path_link_up t (Topology.Edge ea, Topology.Spine)
               && path_link_up t (Topology.Spine, Topology.Edge eb))
         && path_link_up t (Topology.Edge eb, Topology.Host b)

let pp ppf t =
  let slow =
    Hashtbl.fold
      (fun addr port acc ->
        if port.extra_latency_ms > 0.0 then (addr, port.extra_latency_ms) :: acc
        else acc)
      t.hosts []
    |> List.sort compare
  in
  let down_links =
    Hashtbl.fold (fun _ l acc -> if l.l_up then acc else acc + 1) t.links 0
  in
  Fmt.pf ppf
    "net: %a, %d hosts, loss %.3f, %d partitions%a%a, sent %d delivered %d \
     dropped %d (%dB)"
    Topology.pp t.topology (Hashtbl.length t.hosts) t.loss_probability
    (List.length t.partitions)
    Fmt.(
      list ~sep:nop (fun ppf (a, ms) -> pf ppf ", host%d slow +%.1fms" a ms))
    slow
    Fmt.(
      fun ppf n -> if n > 0 then pf ppf ", %d link(s) down" n)
    down_links t.counters.frames_sent t.counters.frames_delivered
    t.counters.frames_dropped t.counters.bytes_sent

(* --- transmission --- *)

(* Addresses a frame is aimed at, before liveness/partition checks
   (those happen at arrival time, counting drops). *)
let intended_destinations t frame =
  let not_self a = a <> frame.src in
  match frame.dst with
  | Unicast a -> if not_self a then [ a ] else []
  | Broadcast -> List.filter not_self (hosts t)
  | Multicast g -> List.filter not_self (group_members t g)

(* Hand one frame copy to a destination port: liveness and host-pair
   partitions are checked now — arrival time — so a host that crashed
   while the frame was in flight never sees it. Shared by both
   topologies; must be called from an event at the frame's arrival
   instant. *)
let deliver t port frame =
  t.counters.frames_delivered <- t.counters.frames_delivered + 1;
  port.p_delivered <- port.p_delivered + 1;
  port.handler frame

let deliver_at_arrival t frame addr =
  match Hashtbl.find t.hosts addr with
  | port
    when port.up
         && (match t.partitions with
            | [] -> true
            | _ -> not (partitioned t frame.src addr)) ->
      if port.extra_latency_ms > 0.0 then
        (* Slow-host injection: the NIC holds the frame. The host may
           crash while it sits there, so re-check liveness at the
           deferred delivery time. *)
        Vsim.Engine.schedule_at t.engine
          (Vsim.Engine.now t.engine +. port.extra_latency_ms)
          (fun () ->
            if port.up then deliver t port frame
            else begin
              t.counters.frames_dropped <- t.counters.frames_dropped + 1;
              net_metric t addr "frames-dropped"
            end)
      else deliver t port frame
  | _ | (exception Not_found) ->
      t.counters.frames_dropped <- t.counters.frames_dropped + 1;
      net_metric t addr "frames-dropped";
      if events_on t then
        net_event t (host_label addr)
          "frame dropped from host%d (down or partitioned)" frame.src

(* The frame-wide loss draw, one per transmitted frame in both
   topologies. Returns true when the frame is lost (accounted). *)
let frame_lost t frame =
  let lost =
    t.loss_probability > 0.0 && Vsim.Prng.float t.prng < t.loss_probability
  in
  if lost then begin
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    net_metric t frame.src "frames-lost";
    if events_on t then
      net_event t (host_label frame.src) "frame lost -> %a (%dB)" pp_dest
        frame.dst frame.payload_bytes
  end;
  lost

(* The single-wire path, bit-for-bit the pre-fabric model: one
   [wire_free_at], transmission then propagation, one loss draw per
   frame at arrival time. *)
let transmit_shared t frame =
  let now = Vsim.Engine.now t.engine in
  let start = Float.max now t.wire_free_at in
  let duration =
    Calibration.transmission_ms t.config ~payload_bytes:frame.payload_bytes
  in
  t.wire_free_at <- start +. duration;
  let arrival = start +. duration +. t.config.propagation_ms in
  Vsim.Engine.schedule_at t.engine arrival (fun () ->
      if not (frame_lost t frame) then
        match frame.dst with
        | Unicast a -> if a <> frame.src then deliver_at_arrival t frame a
        | Broadcast | Multicast _ ->
            List.iter
              (fun addr -> deliver_at_arrival t frame addr)
              (intended_destinations t frame))

(* One store-and-forward hop of the switched fabric over link [l]:
   admission-check the port's bounded queue, serialize behind
   [l_free_at], propagate, then run [k] at the instant the frame is
   available at the far node. A hop out of a switch starts
   {!Calibration.switch_forward_ms} after the frame entered it; the
   source uplink starts at once. [k] reads the clock itself, so no
   arrival time is boxed for it. *)
let hop t frame l ~from_switch k =
  if not l.l_up then begin
    l.l_drops <- l.l_drops + 1;
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    net_metric t frame.src "frames-dropped";
    if events_on t then
      net_event t (host_label frame.src) "frame dropped on down link %a"
        Topology.pp_link l.link_id
  end
  else if l.l_queued >= t.queue_cap then begin
    l.l_drops <- l.l_drops + 1;
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    net_metric t frame.src "frames-dropped";
    if events_on t then
      net_event t (host_label frame.src) "frame tail-dropped at full port %a"
        Topology.pp_link l.link_id
  end
  else begin
    l.l_queued <- l.l_queued + 1;
    if l.l_queued > l.l_queue_peak then l.l_queue_peak <- l.l_queued;
    let now = Vsim.Engine.now t.engine in
    let at = if from_switch then now +. Calibration.switch_forward_ms else now in
    let start = Float.max at l.l_free_at in
    let duration =
      Calibration.transmission_ms t.config ~payload_bytes:frame.payload_bytes
    in
    l.l_free_at <- start +. duration;
    l.l_busy_ms <- l.l_busy_ms +. duration;
    l.l_frames <- l.l_frames + 1;
    let arrival = start +. duration +. t.config.propagation_ms +. l.l_extra_ms in
    Vsim.Engine.schedule_at t.engine arrival (fun () ->
        l.l_queued <- l.l_queued - 1;
        k ())
  end

(* A unicast frame's hops after its source edge switch [src_edge]: down
   to [a] on the same edge, else up through the spine and down [a]'s
   edge. Builds no destination list. *)
let unicast_from_edge t fan_in frame src_edge a =
  let eb = Topology.edge_of ~fan_in a in
  if eb = src_edge then
    hop t frame (host_downlink t eb a) ~from_switch:true (fun () ->
        deliver_at_arrival t frame a)
  else
    hop t frame (edge_uplink t src_edge) ~from_switch:true (fun () ->
        hop t frame (edge_downlink t eb) ~from_switch:true (fun () ->
            hop t frame (host_downlink t eb a) ~from_switch:true (fun () ->
                deliver_at_arrival t frame a)))

(* Broadcast and multicast fan-out from the source edge switch: one
   copy per outgoing link — down to each local destination, one up to
   the spine, one down to each remote edge — never one per destination
   on a shared segment. *)
let fan_out_from_edge t fan_in frame src_edge dests =
  let local, remote =
    List.partition (fun a -> Topology.edge_of ~fan_in a = src_edge) dests
  in
  List.iter
    (fun a ->
      hop t frame (host_downlink t src_edge a) ~from_switch:true (fun () ->
          deliver_at_arrival t frame a))
    local;
  if remote <> [] then
    hop t frame (edge_uplink t src_edge) ~from_switch:true (fun () ->
        let edges =
          List.sort_uniq compare (List.map (Topology.edge_of ~fan_in) remote)
        in
        List.iter
          (fun eb ->
            hop t frame (edge_downlink t eb) ~from_switch:true (fun () ->
                List.iter
                  (fun a ->
                    if Topology.edge_of ~fan_in a = eb then
                      hop t frame (host_downlink t eb a) ~from_switch:true
                        (fun () -> deliver_at_arrival t frame a))
                  remote))
          edges)

(* The switched path. The first hop (source uplink) carries one copy
   regardless of fan-out; switches replicate, so a broadcast costs
   O(links touched), not O(hosts) transmissions on any single segment.
   The loss draw happens once per frame as it clears the source uplink
   (a unicast to the sender itself still draws), mirroring the shared
   medium's one-draw-per-frame accounting. Broadcast and multicast
   destinations are fixed at transmit time. *)
let transmit_switched t fan_in frame =
  let src_edge = Topology.edge_of ~fan_in frame.src in
  match frame.dst with
  | Unicast a ->
      hop t frame (host_uplink t frame.src src_edge) ~from_switch:false
        (fun () ->
          if (not (frame_lost t frame)) && a <> frame.src then
            unicast_from_edge t fan_in frame src_edge a)
  | Broadcast | Multicast _ ->
      let dests = intended_destinations t frame in
      hop t frame (host_uplink t frame.src src_edge) ~from_switch:false
        (fun () ->
          if not (frame_lost t frame) then
            fan_out_from_edge t fan_in frame src_edge dests)

(* Queue a frame for transmission. The sending host must exist and be
   up; otherwise the frame vanishes (its kernel is dead anyway). *)
let transmit t frame =
  match Hashtbl.find t.hosts frame.src with
  | port when port.up -> (
      t.counters.frames_sent <- t.counters.frames_sent + 1;
      t.counters.bytes_sent <-
        t.counters.bytes_sent + t.config.header_bytes + frame.payload_bytes;
      port.p_sent <- port.p_sent + 1;
      port.p_bytes <- port.p_bytes + t.config.header_bytes + frame.payload_bytes;
      if tracing t then
        trace_emit t "host%d -> %a (%dB payload)" frame.src pp_dest frame.dst
          frame.payload_bytes;
      match t.topology with
      | Topology.Shared_medium -> transmit_shared t frame
      | Topology.Switched { fan_in } -> transmit_switched t fan_in frame)
  | _ | (exception Not_found) -> ()
