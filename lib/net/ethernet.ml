(* Simulated network fabric.

   Two topologies share one interface (see {!Topology}):

   - [Shared_medium] (the default): the paper's single wire. A
     transmission waits until the medium is free, then propagates to
     the destination host(s). This path is kept bit-for-bit identical
     to the pre-fabric model: one serialization cursor
     ([wire.free_at]), one PRNG draw per frame, the same event
     schedule.

   - [Switched { fan_in }]: hosts hang off edge switches, edges uplink
     to one spine, and every directed link owns its own serialization
     cursor ([free_at] in the link's [timing]) — independent segments
     carry traffic concurrently. Each hop is
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
  (* One int per counted slot (see [ops]), in the port record that is
     already in cache on every transmit and delivery; an attached hub's
     scrape moves them into its registry. *)
  counts : int array;
}

(* A segment's clocks, in an all-float record so OCaml stores them
   unboxed: a hop updates them without allocating and without a write
   barrier. [free_at] is the serialization cursor; [busy_ms]
   accumulates serialization time for utilization accounting. The
   shared medium's wire keeps only its [free_at]. *)
type timing = {
  mutable free_at : float;
  mutable busy_ms : float;
  mutable extra_ms : float;  (* slow-link fault injection, per hop *)
  mutable busy_sampled : float;  (* busy_ms at the last ts sample *)
}

let new_timing () =
  { free_at = 0.0; busy_ms = 0.0; extra_ms = 0.0; busy_sampled = 0.0 }

(* One directed link of the switched fabric. [l_queued] counts frames
   occupying the port — queued, serializing or in flight — and is what
   the bounded-queue admission check reads. *)
type link = {
  link_id : Topology.node * Topology.node;
  mutable l_up : bool;
  l_timing : timing;
  mutable l_queued : int;
  mutable l_queue_peak : int;
  mutable l_frames : int;
  mutable l_drops : int;  (* tail drops + frames dying on a down link *)
}

(* Marks an index slot whose link has not materialized, and a link-less
   event; never mutated. *)
let no_link =
  {
    link_id = (Topology.Spine, Topology.Spine);
    l_up = false;
    l_timing = new_timing ();
    l_queued = 0;
    l_queue_peak = 0;
    l_frames = 0;
    l_drops = 0;
  }

(* --- the wire's events (see Vobs.Stream) --- *)

type kind =
  | Transmit
  | Deliver
  | Drop_at_host  (* destination down or partitioned away *)
  | Drop_held  (* a slow host's NIC held the frame while the host died *)
  | Drop_down_link
  | Drop_tail
  | Lost
  | Link_state
  | Link_latency
  | Loss
  | Slow_host
  | Partition
  | Heal

(* The registry op of each counted slot ("" = not exported); the first
   three are the per-frame family. Slot 1 counts the bytes of every
   transmitted frame, header included. *)
let ops =
  [|
    "frames-sent"; "bytes-sent"; "frames-delivered"; "frames-dropped";
    "frames-lost"; "";
  |]

let bytes_sent = 1

let slot = function
  | Transmit -> 0
  | Deliver -> 2
  | Drop_at_host | Drop_held | Drop_down_link | Drop_tail -> 3
  | Lost -> 4
  | Link_state | Link_latency | Loss | Slow_host | Partition | Heal -> 5

(* The one reused event of a wire: [site] is the reporting host's
   address, -1 for the wire as a whole; [a], [b], [link] and [x] mean
   what [pp_event] reads for the kind. *)
type event = {
  mutable kind : kind;
  mutable site : addr;
  mutable a : int;
  mutable b : int;
  mutable link : link;
  mutable x : float;
}

(* A destination as one int, for the event record: an address, -1 for
   broadcast, -2 - g for group g. *)
let dest_code = function
  | Unicast a -> a
  | Broadcast -> -1
  | Multicast g -> -2 - g

let pp_dest_code ppf c =
  pp_dest ppf
    (if c >= 0 then Unicast c
     else if c = -1 then Broadcast
     else Multicast (-2 - c))

let host_label addr = Printf.sprintf "host%d" addr

(* The wire's printer, the only place its events' text is written. The
   recorder files an event under its host; the timeline prefixes the
   host instead. *)
let pp_event ~timeline ppf e =
  if timeline && e.site >= 0 then Fmt.pf ppf "host%d " e.site;
  let link ppf e = Topology.pp_link ppf e.link.link_id in
  match e.kind with
  | Transmit -> Fmt.pf ppf "-> %a (%dB payload)" pp_dest_code e.a e.b
  | Lost -> Fmt.pf ppf "frame lost -> %a (%dB)" pp_dest_code e.a e.b
  | Drop_at_host ->
      Fmt.pf ppf "frame dropped from host%d (down or partitioned)" e.a
  | Drop_down_link -> Fmt.pf ppf "frame dropped on down link %a" link e
  | Drop_tail -> Fmt.pf ppf "frame tail-dropped at full port %a" link e
  | Link_state ->
      Fmt.pf ppf "link %a %s" link e (if e.a = 1 then "up" else "down")
  | Link_latency -> Fmt.pf ppf "link %a extra latency := %.3fms" link e e.x
  | Loss -> Fmt.pf ppf "loss probability := %.3f" e.x
  | Slow_host -> Fmt.pf ppf "extra receive latency := %.3fms" e.x
  | Partition -> Fmt.pf ppf "partition host%d <-> host%d" e.a e.b
  | Heal -> Fmt.pf ppf "heal host%d <-> host%d" e.a e.b
  | Deliver | Drop_held -> Fmt.string ppf ops.(slot e.kind)

(* The consumers each kind goes to. *)
let consumers kind =
  let open Vobs.Stream in
  match kind with
  | Transmit -> timeline
  | Loss | Slow_host -> timeline lor recorder
  | Lost | Drop_at_host | Drop_down_link | Drop_tail | Link_state
  | Link_latency | Partition | Heal ->
      recorder
  | Deliver | Drop_held -> 0

let layer =
  {
    Vobs.Stream.column = "net";
    cat = (fun _ -> Vobs.Eventlog.Net);
    host = (fun e -> if e.site < 0 then "net" else host_label e.site);
    trace = (fun _ -> 0);
    pp = pp_event;
    span = None;
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
  wire : timing;  (* Shared_medium only *)
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
  mutable obs : Vobs.Hub.t option;
  ev : event;
  (* Counts of drops at an address no host is attached to; never
     scraped. *)
  stray : int array;
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
    wire = new_timing ();
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
    obs = None;
    ev = { kind = Transmit; site = -1; a = 0; b = 0; link = no_link; x = 0.0 };
    stray = Array.make (Array.length ops) 0;
    last_ts_sample = 0.0;
    ts_interior = None;
  }

(* Time on the wire for a frame carrying [payload_bytes]. It sits beside
   its two callers and is inlined into them: a float a function returns
   is boxed, and the hop path should box only the arrival time. *)
let[@inline] transmission_ms (net : Calibration.network) ~payload_bytes =
  float_of_int ((net.header_bytes + payload_bytes) * 8)
  /. net.bandwidth_bps *. 1000.0

let count counts kind =
  let i = slot kind in
  counts.(i) <- counts.(i) + 1

(* Emit one event while a consumer of its kind listens on the attached
   hub's stream (the one guard). *)
let emit t kind ~site ~a ~b ~link ~x =
  match t.obs with
  | Some hub when Vobs.Stream.listening (Vobs.Hub.stream hub) (consumers kind)
    ->
      let e = t.ev in
      e.kind <- kind;
      e.site <- site;
      e.a <- a;
      e.b <- b;
      if e.link != link then e.link <- link;
      if e.x <> x then e.x <- x;
      Vobs.Stream.emit (Vobs.Hub.stream hub) layer ~consumers:(consumers kind)
        ~clock:(Vsim.Engine.clock t.engine) e
  | Some _ | None -> ()

(* A frame event: counted on [counts], emitted while the hub listens. *)
let report t counts kind ~site ~a ~b ~link =
  count counts kind;
  emit t kind ~site ~a ~b ~link ~x:0.0

let counts_of t addr =
  match Hashtbl.find t.hosts addr with
  | port -> port.counts
  | exception Not_found -> t.stray

(* The hub's scrape source: every port's counts into the registry,
   keyed "host<addr>" under server "net" (this layer sits below the
   kernel and has no better label). *)
let scrape t m =
  Hashtbl.iter
    (fun addr port ->
      if Array.exists (fun n -> n <> 0) port.counts then
        Vobs.Stream.scrape_counts m ~host:(host_label addr) ~server:"net" ~ops
          ~family:3 port.counts)
    t.hosts

(* The wire's half of [Kernel.set_obs]: report into [hub], and let every
   read of its registry scrape the ports. *)
let attach_hub t hub =
  t.obs <- Some hub;
  Vobs.Metrics.add_source (Vobs.Hub.metrics hub) (fun m ->
      match t.obs with Some h when h == hub -> scrape t m | _ -> ())

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
      counts = Array.make (Array.length ops) 0;
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
          l_timing = new_timing ();
          l_queued = 0;
          l_queue_peak = 0;
          l_frames = 0;
          l_drops = 0;
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
    emit t Link_state ~site:(-1) ~a:(if up then 1 else 0) ~b:0 ~link:l ~x:0.0
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
  l.l_timing.extra_ms <- ms;
  emit t Link_latency ~site:(-1) ~a:0 ~b:0 ~link:l ~x:ms

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
        ls_busy_ms = l.l_timing.busy_ms;
        ls_extra_ms = l.l_timing.extra_ms;
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
      let lt = l.l_timing in
      let busy = lt.busy_ms -. lt.busy_sampled in
      lt.busy_sampled <- lt.busy_ms;
      let pct = if interval > 0.0 then busy /. interval *. 100.0 else 0.0 in
      Vobs.Timeseries.sample ts s_util Vobs.Timeseries.Gauge ~now pct;
      Vobs.Timeseries.sample ts s_queue Vobs.Timeseries.Gauge ~now
        (float_of_int l.l_queued);
      Vobs.Timeseries.sample ts s_drops Vobs.Timeseries.Counter ~now
        (float_of_int l.l_drops))
    (interior_links t);
  t.last_ts_sample <- now

(* --- fault injection --- *)

let set_loss_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Ethernet.set_loss_probability";
  t.loss_probability <- p;
  (* Audit trail: fault plans that flip the loss rate leave a record in
     the timeline, the flight recorder and the metrics gauge. *)
  emit t Loss ~site:(-1) ~a:0 ~b:0 ~link:no_link ~x:p;
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
      emit t Slow_host ~site:addr ~a:0 ~b:0 ~link:no_link ~x:ms

let partition t a b =
  let pair = if a < b then (a, b) else (b, a) in
  if not (List.mem pair t.partitions) then begin
    t.partitions <- pair :: t.partitions;
    emit t Partition ~site:(-1) ~a:(fst pair) ~b:(snd pair) ~link:no_link
      ~x:0.0
  end

let heal t a b =
  let pair = if a < b then (a, b) else (b, a) in
  if List.mem pair t.partitions then begin
    t.partitions <- List.filter (fun p -> p <> pair) t.partitions;
    emit t Heal ~site:(-1) ~a:(fst pair) ~b:(snd pair) ~link:no_link ~x:0.0
  end

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
  count port.counts Deliver;
  port.handler frame

let deliver_at_arrival t frame addr =
  match Hashtbl.find t.hosts addr with
  | port
    when port.up
         && (match t.partitions with
            | [] -> true
            | _ -> not (partitioned t frame.src addr)) ->
      if port.extra_latency_ms > 0.0 then begin
        (* Slow-host injection: the NIC holds the frame. The host may
           crash while it sits there, so re-check liveness at the
           deferred delivery time. *)
        let held () =
          if port.up then deliver t port frame
          else begin
            t.counters.frames_dropped <- t.counters.frames_dropped + 1;
            count port.counts Drop_held
          end
        in
        Vsim.Engine.due.at <-
          (Vsim.Engine.clock t.engine).at +. port.extra_latency_ms;
        Vsim.Engine.schedule_due t.engine held
      end
      else deliver t port frame
  | _ | (exception Not_found) ->
      t.counters.frames_dropped <- t.counters.frames_dropped + 1;
      report t (counts_of t addr) Drop_at_host ~site:addr ~a:frame.src ~b:0
        ~link:no_link

(* The frame-wide loss draw, one per transmitted frame in both
   topologies. Returns true when the frame is lost (accounted). *)
let frame_lost t frame =
  let lost =
    t.loss_probability > 0.0 && Vsim.Prng.float t.prng < t.loss_probability
  in
  if lost then begin
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    report t (counts_of t frame.src) Lost ~site:frame.src
      ~a:(dest_code frame.dst) ~b:frame.payload_bytes ~link:no_link
  end;
  lost

(* The single-wire path, bit-for-bit the pre-fabric model: one
   serialization cursor, transmission then propagation, one loss draw
   per frame at arrival time. *)
let transmit_shared t frame =
  let now = (Vsim.Engine.clock t.engine).at in
  let start = Float.max now t.wire.free_at in
  let duration = transmission_ms t.config ~payload_bytes:frame.payload_bytes in
  t.wire.free_at <- start +. duration;
  let arrive () =
    if not (frame_lost t frame) then
      match frame.dst with
      | Unicast a -> if a <> frame.src then deliver_at_arrival t frame a
      | Broadcast | Multicast _ ->
          List.iter
            (fun addr -> deliver_at_arrival t frame addr)
            (intended_destinations t frame)
  in
  Vsim.Engine.due.at <- start +. duration +. t.config.propagation_ms;
  Vsim.Engine.schedule_due t.engine arrive

(* One store-and-forward hop of the switched fabric over link [l]:
   admission-check the port's bounded queue, serialize behind its
   [free_at], propagate, then run [arrive] at the instant the frame
   is available at the far node; [arrive] must first [leave] [l]. A
   hop out of a switch starts {!Calibration.switch_forward_ms} after
   the frame entered it; the source uplink starts at once. [arrive]
   reads the clock itself, so no arrival time is boxed for it. *)
let hop t frame l ~from_switch arrive =
  if not l.l_up then begin
    l.l_drops <- l.l_drops + 1;
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    report t (counts_of t frame.src) Drop_down_link ~site:frame.src ~a:0 ~b:0
      ~link:l
  end
  else if l.l_queued >= t.queue_cap then begin
    l.l_drops <- l.l_drops + 1;
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    report t (counts_of t frame.src) Drop_tail ~site:frame.src ~a:0 ~b:0
      ~link:l
  end
  else begin
    l.l_queued <- l.l_queued + 1;
    if l.l_queued > l.l_queue_peak then l.l_queue_peak <- l.l_queued;
    let now = (Vsim.Engine.clock t.engine).at in
    let at = if from_switch then now +. Calibration.switch_forward_ms else now in
    let lt = l.l_timing in
    let start = Float.max at lt.free_at in
    let duration =
      transmission_ms t.config ~payload_bytes:frame.payload_bytes
    in
    lt.free_at <- start +. duration;
    lt.busy_ms <- lt.busy_ms +. duration;
    l.l_frames <- l.l_frames + 1;
    Vsim.Engine.due.at <-
      start +. duration +. t.config.propagation_ms +. lt.extra_ms;
    Vsim.Engine.schedule_due t.engine arrive
  end

(* The frame no longer occupies [l]'s port. *)
let leave l = l.l_queued <- l.l_queued - 1

(* A unicast frame crossing the switched fabric: one record and one
   action for all of its hops. [f_stage] names the link the frame
   occupies: its source uplink, its edge's spine uplink, the spine's
   link down to the destination's edge, or that edge's port to the
   destination. A stage is an immediate, so advancing it stores no
   pointer; the link is looked up again on arrival (an array read,
   since its hop materialized it). *)
type stage = Source_uplink | Spine_uplink | Spine_downlink | Host_downlink

type 'a flight = {
  f_net : 'a t;
  f_frame : 'a frame;
  f_src_edge : int;
  f_dst : addr;
  f_dst_edge : int;
  mutable f_stage : stage;
}

let next_hop f stage l arrive =
  f.f_stage <- stage;
  hop f.f_net f.f_frame l ~from_switch:true arrive

(* The flight's action at the end of each hop: release the link, then
   take the next hop — down to the destination on the same edge, else
   up through the spine and down its edge — or deliver. The loss draw
   happens as the frame clears the source uplink. *)
let advance f arrive =
  let t = f.f_net and frame = f.f_frame and a = f.f_dst in
  match f.f_stage with
  | Source_uplink ->
      leave (host_uplink t frame.src f.f_src_edge);
      if (not (frame_lost t frame)) && a <> frame.src then
        if f.f_dst_edge = f.f_src_edge then
          next_hop f Host_downlink (host_downlink t f.f_dst_edge a) arrive
        else next_hop f Spine_uplink (edge_uplink t f.f_src_edge) arrive
  | Spine_uplink ->
      leave (edge_uplink t f.f_src_edge);
      next_hop f Spine_downlink (edge_downlink t f.f_dst_edge) arrive
  | Spine_downlink ->
      leave (edge_downlink t f.f_dst_edge);
      next_hop f Host_downlink (host_downlink t f.f_dst_edge a) arrive
  | Host_downlink ->
      leave (host_downlink t f.f_dst_edge a);
      deliver_at_arrival t frame a

(* A broadcast or multicast copy's hop over [l]: its own action
   releases the link, then runs [k]. *)
let copy_hop t frame l k =
  hop t frame l ~from_switch:true (fun () ->
      leave l;
      k ())

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
      copy_hop t frame (host_downlink t src_edge a) (fun () ->
          deliver_at_arrival t frame a))
    local;
  if remote <> [] then
    copy_hop t frame (edge_uplink t src_edge) (fun () ->
        let edges =
          List.sort_uniq compare (List.map (Topology.edge_of ~fan_in) remote)
        in
        List.iter
          (fun eb ->
            copy_hop t frame (edge_downlink t eb) (fun () ->
                List.iter
                  (fun a ->
                    if Topology.edge_of ~fan_in a = eb then
                      copy_hop t frame (host_downlink t eb a) (fun () ->
                          deliver_at_arrival t frame a))
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
  let uplink = host_uplink t frame.src src_edge in
  match frame.dst with
  | Unicast a ->
      let f =
        {
          f_net = t;
          f_frame = frame;
          f_src_edge = src_edge;
          f_dst = a;
          f_dst_edge = Topology.edge_of ~fan_in a;
          f_stage = Source_uplink;
        }
      in
      let rec arrive () = advance f arrive in
      hop t frame uplink ~from_switch:false arrive
  | Broadcast | Multicast _ ->
      let dests = intended_destinations t frame in
      hop t frame uplink ~from_switch:false (fun () ->
          leave uplink;
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
      port.counts.(bytes_sent) <-
        port.counts.(bytes_sent) + t.config.header_bytes + frame.payload_bytes;
      report t port.counts Transmit ~site:frame.src ~a:(dest_code frame.dst)
        ~b:frame.payload_bytes ~link:no_link;
      match t.topology with
      | Topology.Shared_medium -> transmit_shared t frame
      | Topology.Switched { fan_in } -> transmit_switched t fan_in frame)
  | _ | (exception Not_found) -> ()
