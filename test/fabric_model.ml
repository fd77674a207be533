(* Reference model of the switched fabric: the list-walking, tuple-keyed
   hop code [Vnet.Ethernet] ran before its links were reached through
   arrays, kept as the oracle the fabric is checked against (as
   write_log_model.ml is for the kernel's group write log). It keeps
   its own hosts, groups, partitions, loss stream and link table and
   schedules on its own engine; driven through the same script as an
   [Ethernet.t] on another engine, the two must deliver the same frames
   at the same instants and count the same drops. Switched topology
   only: the shared medium has its own single-wire oracle in
   test_fabric.ml. *)

module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module Engine = Vsim.Engine

type link = {
  mutable l_up : bool;
  mutable l_free_at : float;
  mutable l_queued : int;
  mutable l_queue_peak : int;
  mutable l_frames : int;
  mutable l_drops : int;
  mutable l_busy_ms : float;
  mutable l_extra_ms : float;
}

type 'a port = {
  mutable up : bool;
  handler : 'a E.frame -> unit;
  mutable extra_latency_ms : float;
}

type 'a t = {
  engine : Engine.t;
  config : C.network;
  fan_in : int;
  queue_cap : int;
  prng : Vsim.Prng.t;
  hosts : (int, 'a port) Hashtbl.t;
  groups : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  links : (T.node * T.node, link) Hashtbl.t;
  mutable loss_probability : float;
  mutable partitions : (int * int) list;
  counters : E.counters;
}

let create ~seed ~fan_in ~queue_cap ~config engine =
  {
    engine;
    config;
    fan_in;
    queue_cap;
    prng = Vsim.Prng.create ~seed;
    hosts = Hashtbl.create 16;
    groups = Hashtbl.create 16;
    links = Hashtbl.create 64;
    loss_probability = 0.0;
    partitions = [];
    counters =
      {
        E.frames_sent = 0;
        frames_delivered = 0;
        frames_dropped = 0;
        bytes_sent = 0;
      };
  }

let attach t addr handler =
  Hashtbl.replace t.hosts addr { up = true; handler; extra_latency_ms = 0.0 }

let set_host_up t addr up = (Hashtbl.find t.hosts addr).up <- up

let set_extra_latency t addr ms =
  (Hashtbl.find t.hosts addr).extra_latency_ms <- ms

let set_loss_probability t p = t.loss_probability <- p

let hosts t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.hosts [] |> List.sort compare

let group_members t group =
  match Hashtbl.find_opt t.groups group with
  | None -> []
  | Some members ->
      Hashtbl.fold (fun a () acc -> a :: acc) members [] |> List.sort compare

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

let pair a b = if a < b then (a, b) else (b, a)
let partitioned t a b = List.mem (pair a b) t.partitions

let partition t a b =
  if not (partitioned t a b) then t.partitions <- pair a b :: t.partitions

let heal t a b =
  let p = pair a b in
  t.partitions <- List.filter (fun q -> q <> p) t.partitions

let get_link t key =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          l_up = true;
          l_free_at = 0.0;
          l_queued = 0;
          l_queue_peak = 0;
          l_frames = 0;
          l_drops = 0;
          l_busy_ms = 0.0;
          l_extra_ms = 0.0;
        }
      in
      Hashtbl.replace t.links key l;
      l

let set_link_up t a b up = (get_link t (a, b)).l_up <- up
let set_link_extra_latency t a b ms = (get_link t (a, b)).l_extra_ms <- ms

let link_stats t =
  Hashtbl.fold
    (fun key l acc ->
      {
        E.ls_label = T.link_label key;
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
  |> List.sort (fun a b -> compare a.E.ls_label b.E.ls_label)

let dropped t = t.counters.frames_dropped <- t.counters.frames_dropped + 1

let intended_destinations t (frame : 'a E.frame) =
  let not_self a = a <> frame.src in
  match frame.dst with
  | E.Unicast a -> if not_self a then [ a ] else []
  | E.Broadcast -> List.filter not_self (hosts t)
  | E.Multicast g -> List.filter not_self (group_members t g)

let deliver_at_arrival t (frame : 'a E.frame) addr =
  match Hashtbl.find_opt t.hosts addr with
  | Some port when port.up && not (partitioned t frame.src addr) ->
      let deliver () =
        t.counters.frames_delivered <- t.counters.frames_delivered + 1;
        port.handler frame
      in
      if port.extra_latency_ms > 0.0 then
        Engine.schedule_at t.engine
          (Engine.now t.engine +. port.extra_latency_ms)
          (fun () -> if port.up then deliver () else dropped t)
      else deliver ()
  | Some _ | None -> dropped t

let frame_lost t =
  let lost =
    t.loss_probability > 0.0 && Vsim.Prng.float t.prng < t.loss_probability
  in
  if lost then dropped t;
  lost

let hop t (frame : 'a E.frame) key ~at k =
  let l = get_link t key in
  if (not l.l_up) || l.l_queued >= t.queue_cap then begin
    l.l_drops <- l.l_drops + 1;
    dropped t
  end
  else begin
    l.l_queued <- l.l_queued + 1;
    if l.l_queued > l.l_queue_peak then l.l_queue_peak <- l.l_queued;
    let start = Float.max at l.l_free_at in
    let duration =
      E.transmission_ms t.config ~payload_bytes:frame.payload_bytes
    in
    l.l_free_at <- start +. duration;
    l.l_busy_ms <- l.l_busy_ms +. duration;
    l.l_frames <- l.l_frames + 1;
    let arrival =
      start +. duration +. t.config.propagation_ms +. l.l_extra_ms
    in
    Engine.schedule_at t.engine arrival (fun () ->
        l.l_queued <- l.l_queued - 1;
        k arrival)
  end

let transmit t (frame : 'a E.frame) =
  match Hashtbl.find_opt t.hosts frame.src with
  | Some port when port.up ->
      let fan_in = t.fan_in in
      t.counters.frames_sent <- t.counters.frames_sent + 1;
      t.counters.bytes_sent <-
        t.counters.bytes_sent + t.config.header_bytes + frame.payload_bytes;
      let now = Engine.now t.engine in
      let dests = intended_destinations t frame in
      let src_edge = T.edge_of ~fan_in frame.src in
      hop t frame (T.Host frame.src, T.Edge src_edge) ~at:now (fun at ->
          if not (frame_lost t) then begin
            let at = at +. C.switch_forward_ms in
            let local, remote =
              List.partition (fun a -> T.edge_of ~fan_in a = src_edge) dests
            in
            List.iter
              (fun a ->
                hop t frame (T.Edge src_edge, T.Host a) ~at (fun _ ->
                    deliver_at_arrival t frame a))
              local;
            if remote <> [] then
              hop t frame (T.Edge src_edge, T.Spine) ~at (fun at ->
                  let at = at +. C.switch_forward_ms in
                  let edges =
                    List.sort_uniq compare (List.map (T.edge_of ~fan_in) remote)
                  in
                  List.iter
                    (fun eb ->
                      hop t frame (T.Spine, T.Edge eb) ~at (fun at ->
                          let at = at +. C.switch_forward_ms in
                          List.iter
                            (fun a ->
                              if T.edge_of ~fan_in a = eb then
                                hop t frame (T.Edge eb, T.Host a) ~at (fun _ ->
                                    deliver_at_arrival t frame a))
                            remote))
                    edges)
          end)
  | Some _ | None -> ()
