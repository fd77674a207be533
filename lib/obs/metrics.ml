(* The metrics store: counters, gauges and fixed-bucket latency
   histograms in one table keyed by (level, scope, server, operation).

   The store is designed for the simulation's hot paths: recording
   never touches simulated time (so instrumented and uninstrumented runs
   are bit-identical), and it is always on. Instruments are created
   lazily on first use, so call sites need no setup.

   Every recording lands at its leaf key (the host is the scope). While
   a group mapping is installed, it also lands at its group key and at
   its fleet key. Each leaf entry holds the two entries it fans out to,
   bound on its first grouped recording, so a keyed recording costs one
   probe lookup, grouped or not. Aggregation per instrument kind:
   counters sum; gauges keep the latest reading at the leaf and the
   running peak at the group and fleet keys (a group's "queue depth" is
   the worst queue it has seen — summing instantaneous depths across
   members is meaningless); histograms take the sample at every level.
   Group and fleet cardinality is O(groups + servers), independent of
   the host count; while grouped, a new leaf key past [leaf_cap] is
   refused and counted, and its recordings still reach the aggregates,
   so fleet totals stay exact while per-leaf detail saturates.

   Producers that count in place (the kernel, the wire) register a
   source: every read runs the sources first, so what a reader sees
   includes their counts without anyone flushing. *)

type level = Leaf | Group | Fleet

let level_to_string = function
  | Leaf -> "leaf"
  | Group -> "group"
  | Fleet -> "fleet"

type key = { host : string; server : string; op : string }

let pp_key ppf k = Fmt.pf ppf "%s/%s/%s" k.host k.server k.op

let compare_key a b =
  match String.compare a.host b.host with
  | 0 -> (
      match String.compare a.server b.server with
      | 0 -> String.compare a.op b.op
      | c -> c)
  | c -> c

(* The table's own key. It is mutable so that one reused probe per
   store can look up any key without allocating; a stored key is always
   a fresh copy, made when its entry is created. *)
type slot = {
  mutable s_level : level;
  mutable s_scope : string;
  mutable s_server : string;
  mutable s_op : string;
}

module Slots = Hashtbl.Make (struct
  type t = slot

  let equal a b =
    a.s_level == b.s_level
    && String.equal a.s_op b.s_op
    && String.equal a.s_server b.s_server
    && String.equal a.s_scope b.s_scope

  let hash (k : t) = Hashtbl.hash k
end)

type entry = {
  key : key;
  mutable counter : int ref option;
  mutable gauge : float ref option;
  mutable hist : Histogram.t option;
  (* A leaf's fan-out: [unbound] until its first grouped recording,
     then its group entry ([no_group] when the mapping names none) and
     its fleet entry. *)
  mutable group : entry;
  mutable fleet : entry;
}

let sentinel () =
  let rec e =
    {
      key = { host = ""; server = ""; op = "" };
      counter = None;
      gauge = None;
      hist = None;
      group = e;
      fleet = e;
    }
  in
  e

let unbound = sentinel ()
let no_group = sentinel ()
let fleet_scope = "fleet"
let leaf_cap = 4096
let exemplar_slots = 2

type t = {
  bounds : float array;
  probe : slot;
  entries : entry Slots.t;
  mutable leaves : int;
  mutable keys_dropped : int;
  mutable group_of : (string -> string option) option;
  (* Stands in for a leaf key the cap refused: never stored, and its
     fan-out is bound afresh at each recording. *)
  refused : entry;
  (* The exemplar reservoirs' private stream: no workload draws. Held
     as an option so each sample passes it to [Histogram.observe ?rand]
     without allocating one. *)
  rand : Vsim.Prng.t option;
  mutable sources : (t -> unit) list;  (* in registration order *)
}

let create ?(bounds = Histogram.default_bounds) () =
  {
    bounds;
    probe = { s_level = Leaf; s_scope = ""; s_server = ""; s_op = "" };
    entries = Slots.create 128;
    leaves = 0;
    keys_dropped = 0;
    group_of = None;
    refused = sentinel ();
    rand = Some (Vsim.Prng.create ~seed:0x0b5);
    sources = [];
  }

let add_source t f = t.sources <- t.sources @ [ f ]

(* The scrape: every reader runs it before reading. *)
let scrape t = List.iter (fun f -> f t) t.sources

(* A new mapping may group a leaf differently: every leaf rebinds on
   its next grouped recording. *)
let set_groups t group_of =
  t.group_of <- group_of;
  Slots.iter
    (fun _ e ->
      e.group <- unbound;
      e.fleet <- unbound)
    t.entries

let grouped t = Option.is_some t.group_of

(* The probe, pointed at one key. Valid until the next call. *)
let probe t level ~scope ~server ~op =
  let p = t.probe in
  p.s_level <- level;
  p.s_scope <- scope;
  p.s_server <- server;
  p.s_op <- op;
  p

let add t p =
  let e =
    {
      key = { host = p.s_scope; server = p.s_server; op = p.s_op };
      counter = None;
      gauge = None;
      hist = None;
      group = unbound;
      fleet = unbound;
    }
  in
  Slots.add t.entries
    {
      s_level = p.s_level;
      s_scope = p.s_scope;
      s_server = p.s_server;
      s_op = p.s_op;
    }
    e;
  e

(* The leaf entry of a key, made on first use; while grouped, a new
   key past the cap is refused and gets the stand-in. *)
let leaf t ~host ~server ~op =
  let p = probe t Leaf ~scope:host ~server ~op in
  match Slots.find t.entries p with
  | e -> e
  | exception Not_found -> (
      match t.group_of with
      | Some _ when t.leaves >= leaf_cap ->
          t.keys_dropped <- t.keys_dropped + 1;
          t.refused
      | _ ->
          t.leaves <- t.leaves + 1;
          add t p)

(* Group and fleet keys are always admitted: their cardinality is
   bounded by the mapping, not by the host count. *)
let aggregate t level ~scope ~server ~op =
  let p = probe t level ~scope ~server ~op in
  match Slots.find t.entries p with e -> e | exception Not_found -> add t p

(* Bind a leaf's fan-out, group before fleet. *)
let fan_out t group_of e ~host ~server ~op =
  if e.fleet == unbound || e == t.refused then begin
    e.group <-
      (match group_of host with
      | Some g -> aggregate t Group ~scope:g ~server ~op
      | None -> no_group);
    e.fleet <- aggregate t Fleet ~scope:fleet_scope ~server ~op
  end

let count e by =
  match e.counter with
  | Some r -> r := !r + by
  | None -> e.counter <- Some (ref by)

let incr ?(by = 1) t ~host ~server ~op =
  let e = leaf t ~host ~server ~op in
  if e != t.refused then count e by;
  match t.group_of with
  | None -> ()
  | Some group_of ->
      fan_out t group_of e ~host ~server ~op;
      if e.group != no_group then count e.group by;
      count e.fleet by

let gauge e ~peak v =
  match e.gauge with
  | Some r -> if (not peak) || v > !r then r := v
  | None -> e.gauge <- Some (ref v)

let set_gauge t ~host ~server ~op v =
  let e = leaf t ~host ~server ~op in
  if e != t.refused then gauge e ~peak:false v;
  match t.group_of with
  | None -> ()
  | Some group_of ->
      fan_out t group_of e ~host ~server ~op;
      if e.group != no_group then gauge e.group ~peak:true v;
      gauge e.fleet ~peak:true v

let sample ?trace t e v =
  let h =
    match e.hist with
    | Some h -> h
    | None ->
        let exemplar_slots =
          match t.group_of with None -> 0 | Some _ -> exemplar_slots
        in
        let h = Histogram.create ~bounds:t.bounds ~exemplar_slots () in
        e.hist <- Some h;
        h
  in
  Histogram.observe ?trace ?rand:t.rand h v

let observe ?trace t ~host ~server ~op v =
  let e = leaf t ~host ~server ~op in
  if e != t.refused then sample ?trace t e v;
  match t.group_of with
  | None -> ()
  | Some group_of ->
      fan_out t group_of e ~host ~server ~op;
      if e.group != no_group then sample ?trace t e.group v;
      sample ?trace t e.fleet v

let counter_value t ~host ~server ~op =
  scrape t;
  match Slots.find t.entries (probe t Leaf ~scope:host ~server ~op) with
  | { counter = Some r; _ } -> !r
  | _ | (exception Not_found) -> 0

let histogram t ~host ~server ~op =
  scrape t;
  match Slots.find t.entries (probe t Leaf ~scope:host ~server ~op) with
  | e -> e.hist
  | exception Not_found -> None

let rows ?(level = Leaf) t cell =
  scrape t;
  Slots.fold
    (fun s e acc ->
      if s.s_level != level then acc
      else match cell e with Some v -> (e.key, v) :: acc | None -> acc)
    t.entries []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let counters ?level t = rows ?level t (fun e -> Option.map ( ! ) e.counter)
let gauges ?level t = rows ?level t (fun e -> Option.map ( ! ) e.gauge)
let histograms ?level t = rows ?level t (fun e -> e.hist)

let key_count t =
  scrape t;
  Slots.length t.entries

let keys_dropped t =
  scrape t;
  t.keys_dropped

let level_json t level ~scope =
  let instrument extra (k : key) =
    Json.Obj
      ([
         (scope, Json.String k.host);
         ("server", Json.String k.server);
         ("op", Json.String k.op);
       ]
      @ extra)
  in
  Json.Obj
    [
      ( "counters",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Int v) ] k)
             (counters ~level t)) );
      ( "gauges",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Float v) ] k)
             (gauges ~level t)) );
      ( "histograms",
        Json.List
          (List.map
             (fun (k, h) -> instrument [ ("histogram", Histogram.to_json h) ] k)
             (histograms ~level t)) );
    ]

let to_json t = level_json t Leaf ~scope:"host"

let levels_to_json t =
  Json.Obj
    [
      ("key_count", Json.Int (key_count t));
      ("keys_dropped", Json.Int (keys_dropped t));
      ("group", level_json t Group ~scope:"scope");
      ("fleet", level_json t Fleet ~scope:"scope");
    ]
