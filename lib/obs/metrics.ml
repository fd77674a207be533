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
   they report zero/absent, and callers read the rollup instead. *)

module Histogram = Histogram

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
  mutable exemplar_slots : int;
  mutable exemplar_rand : Srand.t option;
  (* Bumped whenever the storage mode changes (rollup attach/detach,
     reset, exemplar reconfiguration): handles compare their stamp
     against this and rebind lazily. *)
  mutable generation : int;
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
    exemplar_slots = 0;
    exemplar_rand = None;
    generation = 0;
  }

let enabled t = t.enabled
let set_enabled t flag = t.enabled <- flag
let rollup t = t.rollup

let set_rollup t r =
  t.rollup <- r;
  t.generation <- t.generation + 1

let set_exemplars t ~slots ~seed =
  if slots < 0 then invalid_arg "Metrics.set_exemplars: negative slots";
  t.exemplar_slots <- slots;
  t.exemplar_rand <- (if slots = 0 then None else Some (Srand.create ~seed));
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
      let h =
        Histogram.create ~bounds:t.bounds ~exemplar_slots:t.exemplar_slots ()
      in
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
        Histogram.observe ?trace ?rand:t.exemplar_rand
          (flat_histogram_cell t ~host ~server ~op)
          v

(* --- handles: the recording hot path --- *)

(* A handle caches where its instrument's data lives — a flat cell, or
   a rollup route — so per-frame call sites pay pointer work instead of
   key hashing. The binding is lazy and generation-stamped: attaching
   or detaching a rollup, resetting, or reconfiguring exemplars bumps
   [generation], and every handle transparently rebinds on its next
   recording. *)

type counter = {
  cn_t : t;
  cn_host : string;
  cn_server : string;
  cn_op : string;
  mutable cn_gen : int;
  mutable cn_flat : int ref option;
  mutable cn_route : Rollup.counter_route option;
}

type observer = {
  ob_t : t;
  ob_host : string;
  ob_server : string;
  ob_op : string;
  mutable ob_gen : int;
  mutable ob_flat : Histogram.t option;
  mutable ob_route : Rollup.observe_route option;
}

let counter t ~host ~server ~op =
  {
    cn_t = t;
    cn_host = host;
    cn_server = server;
    cn_op = op;
    cn_gen = t.generation - 1;
    cn_flat = None;
    cn_route = None;
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

let bind_counter c =
  let t = c.cn_t in
  c.cn_gen <- t.generation;
  match t.rollup with
  | Some r ->
      c.cn_flat <- None;
      c.cn_route <-
        Some
          (Rollup.counter_route r ~leaf:c.cn_host ~server:c.cn_server
             ~op:c.cn_op)
  | None ->
      c.cn_route <- None;
      c.cn_flat <-
        Some
          (flat_counter_cell t ~host:c.cn_host ~server:c.cn_server
             ~op:c.cn_op)

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

let add ?(by = 1) c =
  let t = c.cn_t in
  if t.enabled then begin
    if c.cn_gen <> t.generation then bind_counter c;
    match c.cn_route with
    | Some r -> Rollup.route_add ~by r
    | None -> (
        match c.cn_flat with
        | Some cell -> cell := !cell + by
        | None -> ())
  end

let record ?trace o v =
  let t = o.ob_t in
  if t.enabled then begin
    if o.ob_gen <> t.generation then bind_observer o;
    match o.ob_route with
    | Some r -> Rollup.route_observe ?trace r v
    | None -> (
        match o.ob_flat with
        | Some h -> Histogram.observe ?trace ?rand:t.exemplar_rand h v
        | None -> ())
  end

let counter_value t ~host ~server ~op =
  match Slots.find t.counters (probe t ~host ~server ~op) with
  | r -> !r
  | exception Not_found -> 0

let gauge_value t ~host ~server ~op =
  Option.map ( ! ) (Slots.find_opt t.gauges (probe t ~host ~server ~op))

let histogram t ~host ~server ~op =
  Slots.find_opt t.histograms (probe t ~host ~server ~op)

let compare_key a b =
  match String.compare a.host b.host with
  | 0 -> (
      match String.compare a.server b.server with
      | 0 -> String.compare a.op b.op
      | c -> c)
  | c -> c

let sorted_bindings tbl value =
  Slots.fold (fun k v acc -> (key_of_slot k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let counters t = sorted_bindings t.counters ( ! )
let gauges t = sorted_bindings t.gauges ( ! )
let histograms t = sorted_bindings t.histograms Fun.id

let reset t =
  Slots.reset t.counters;
  Slots.reset t.gauges;
  Slots.reset t.histograms;
  t.generation <- t.generation + 1

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

let pp ppf t =
  List.iter
    (fun (k, v) -> Fmt.pf ppf "%a = %d@." pp_key k v)
    (counters t);
  List.iter
    (fun (k, v) -> Fmt.pf ppf "%a = %.3f@." pp_key k v)
    (gauges t);
  List.iter
    (fun (k, h) -> Fmt.pf ppf "%a: %a@." pp_key k Histogram.pp h)
    (histograms t)
