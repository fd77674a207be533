(* The metrics registry: named counters, gauges and fixed-bucket latency
   histograms, keyed by (host, server, operation).

   The registry is designed for the simulation's hot paths: recording
   never touches simulated time (so instrumented and uninstrumented runs
   are bit-identical), and a disabled registry reduces every operation
   to one boolean test. Instruments are created lazily on first use, so
   call sites need no setup.

   Two storage modes share this one recording API. The default is the
   original flat mode: one instrument per concrete (host, server, op)
   triple — unbounded cardinality, fine at demo scale. Attaching a
   {!Rollup} ([set_rollup]) switches the registry to scale mode: every
   recording is forwarded to the rollup's leaf/group/fleet tree (host
   as the leaf scope) and the flat tables stay empty, so key count is
   governed by the rollup's cap instead of the host count. The flat
   readers deliberately keep their flat-mode meaning — in rollup mode
   they report zero/absent, and callers read the rollup instead.

   Producers that count in place (the kernel, the wire) register a
   source: every read runs the sources first, so what a reader sees
   includes their counts without anyone flushing. *)

type key = { host : string; server : string; op : string }

let pp_key ppf k = Fmt.pf ppf "%s/%s/%s" k.host k.server k.op

let key_json k =
  [
    ("host", Json.String k.host);
    ("server", Json.String k.server);
    ("op", Json.String k.op);
  ]

(* The flat tables' own key. It is mutable so that one reused probe per
   registry can look up any key without allocating; a stored key is
   always a fresh copy, made when its instrument is created. *)
type slot = {
  mutable s_host : string;
  mutable s_server : string;
  mutable s_op : string;
}

module Slots = Hashtbl.Make (struct
  type t = slot

  let equal a b =
    String.equal a.s_op b.s_op
    && String.equal a.s_server b.s_server
    && String.equal a.s_host b.s_host

  let hash (k : t) = Hashtbl.hash k
end)

type t = {
  mutable enabled : bool;
  bounds : float array;
  probe : slot;
  counters : int ref Slots.t;
  gauges : float ref Slots.t;
  histograms : Histogram.t Slots.t;
  mutable rollup : Rollup.t option;
  (* Bumped whenever the storage mode changes (rollup attach or
     detach): handles compare their stamp against this and rebind
     lazily. *)
  mutable generation : int;
  mutable sources : (t -> unit) list;  (* in registration order *)
}

let create ?(bounds = Histogram.default_bounds) () =
  {
    enabled = true;
    bounds;
    probe = { s_host = ""; s_server = ""; s_op = "" };
    counters = Slots.create 64;
    gauges = Slots.create 16;
    histograms = Slots.create 32;
    rollup = None;
    generation = 0;
    sources = [];
  }

let enabled t = t.enabled
let set_enabled t flag = t.enabled <- flag
let add_source t f = t.sources <- t.sources @ [ f ]

(* The scrape: every reader runs it before reading. *)
let scrape t = List.iter (fun f -> f t) t.sources

let rollup t =
  scrape t;
  t.rollup

let set_rollup t r =
  t.rollup <- r;
  t.generation <- t.generation + 1

(* The probe, pointed at one key. Valid until the next call. *)
let probe t ~host ~server ~op =
  let p = t.probe in
  p.s_host <- host;
  p.s_server <- server;
  p.s_op <- op;
  p

let stored p = { s_host = p.s_host; s_server = p.s_server; s_op = p.s_op }
let key_of_slot s = { host = s.s_host; server = s.s_server; op = s.s_op }

let flat_counter_cell t ~host ~server ~op =
  let p = probe t ~host ~server ~op in
  match Slots.find t.counters p with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Slots.add t.counters (stored p) r;
      r

let flat_histogram_cell t ~host ~server ~op =
  let p = probe t ~host ~server ~op in
  match Slots.find t.histograms p with
  | h -> h
  | exception Not_found ->
      let h = Histogram.create ~bounds:t.bounds () in
      Slots.add t.histograms (stored p) h;
      h

let incr ?(by = 1) t ~host ~server ~op =
  if t.enabled then
    match t.rollup with
    | Some r -> Rollup.incr ~by r ~leaf:host ~server ~op
    | None ->
        let cell = flat_counter_cell t ~host ~server ~op in
        cell := !cell + by

let set_gauge t ~host ~server ~op v =
  if t.enabled then
    match t.rollup with
    | Some r -> Rollup.set_gauge r ~leaf:host ~server ~op v
    | None -> (
        let p = probe t ~host ~server ~op in
        match Slots.find t.gauges p with
        | r -> r := v
        | exception Not_found -> Slots.add t.gauges (stored p) (ref v))

let observe ?trace t ~host ~server ~op v =
  if t.enabled then
    match t.rollup with
    | Some r -> Rollup.observe ?trace r ~leaf:host ~server ~op v
    | None ->
        Histogram.observe ?trace (flat_histogram_cell t ~host ~server ~op) v

(* --- observer handles: the recording hot path --- *)

(* A handle caches where its histogram lives — a flat cell, or a
   rollup route — so per-operation call sites pay pointer work instead
   of key hashing. The binding is lazy and generation-stamped:
   attaching or detaching a rollup bumps [generation], and every
   handle transparently rebinds on its next recording. *)

type observer = {
  ob_t : t;
  ob_host : string;
  ob_server : string;
  ob_op : string;
  mutable ob_gen : int;
  mutable ob_flat : Histogram.t option;
  mutable ob_route : Rollup.observe_route option;
}

let observer t ~host ~server ~op =
  {
    ob_t = t;
    ob_host = host;
    ob_server = server;
    ob_op = op;
    ob_gen = t.generation - 1;
    ob_flat = None;
    ob_route = None;
  }

let bind_observer o =
  let t = o.ob_t in
  o.ob_gen <- t.generation;
  match t.rollup with
  | Some r ->
      o.ob_flat <- None;
      o.ob_route <-
        Some
          (Rollup.observe_route r ~leaf:o.ob_host ~server:o.ob_server
             ~op:o.ob_op)
  | None ->
      o.ob_route <- None;
      o.ob_flat <-
        Some
          (flat_histogram_cell t ~host:o.ob_host ~server:o.ob_server
             ~op:o.ob_op)

let record ?trace o v =
  let t = o.ob_t in
  if t.enabled then begin
    if o.ob_gen <> t.generation then bind_observer o;
    match o.ob_route with
    | Some r -> Rollup.route_observe ?trace r v
    | None -> (
        match o.ob_flat with
        | Some h -> Histogram.observe ?trace h v
        | None -> ())
  end

let counter_value t ~host ~server ~op =
  scrape t;
  match Slots.find t.counters (probe t ~host ~server ~op) with
  | r -> !r
  | exception Not_found -> 0

let histogram t ~host ~server ~op =
  scrape t;
  Slots.find_opt t.histograms (probe t ~host ~server ~op)

let compare_key a b =
  match String.compare a.host b.host with
  | 0 -> (
      match String.compare a.server b.server with
      | 0 -> String.compare a.op b.op
      | c -> c)
  | c -> c

let sorted_bindings t tbl value =
  scrape t;
  Slots.fold (fun k v acc -> (key_of_slot k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let counters t = sorted_bindings t t.counters ( ! )
let gauges t = sorted_bindings t t.gauges ( ! )
let histograms t = sorted_bindings t t.histograms Fun.id

let to_json t =
  let instrument extra k = Json.Obj (key_json k @ extra) in
  Json.Obj
    [
      ( "counters",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Int v) ] k)
             (counters t)) );
      ( "gauges",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Float v) ] k)
             (gauges t)) );
      ( "histograms",
        Json.List
          (List.map
             (fun (k, h) ->
               instrument [ ("histogram", Histogram.to_json h) ] k)
             (histograms t)) );
    ]
