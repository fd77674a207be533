(* Hierarchical metric rollups: the scale answer to the flat registry.

   The flat {!Metrics} registry keys every instrument by a concrete
   (host, server, op) triple, which is perfect at demo scale and fatal
   at 100k hosts — cardinality grows with the host count. A rollup
   keeps three levels instead:

     leaf   one scope per reporting entity (a host, a link), capped
     group  one scope per aggregation group (an edge switch, a shard)
     fleet  exactly one scope ("fleet")

   and every recording lands in all three at once. The caller supplies
   [group_of], the leaf-scope -> group-scope mapping (typically
   Topology.edge identity — but this library sits below the network
   stack, so the function is injected rather than imported). Group and
   fleet cardinality is O(groups + servers), independent of the host
   count; leaf cardinality is bounded by a hard cap. When the cap is
   hit, new leaf keys are refused and counted in [keys_dropped] —
   aggregate levels keep absorbing those observations, so the fleet
   totals stay exact while per-leaf detail saturates. Loud saturation,
   no OOM.

   Aggregation semantics per instrument kind: counters sum, gauges keep
   the running peak (a group's "queue depth" is the worst queue it has
   ever seen — a max, since summing instantaneous depths across
   members is meaningless), histograms merge bucket-wise
   ({!Histogram.merge}). [merge] combines two rollups with the same
   rules and no cap, making it associative — reporting-time machinery
   for combining shards, not a recording path. *)

type level = Leaf | Group | Fleet

let level_to_string = function
  | Leaf -> "leaf"
  | Group -> "group"
  | Fleet -> "fleet"

type key = { scope : string; server : string; op : string }

let pp_key ppf k = Fmt.pf ppf "%s/%s/%s" k.scope k.server k.op

let compare_key a b =
  match String.compare a.scope b.scope with
  | 0 -> (
      match String.compare a.server b.server with
      | 0 -> String.compare a.op b.op
      | c -> c)
  | c -> c

type t = {
  group_of : string -> string option;
  leaf_cap : int;
  bounds : float array;
  slots : int;
  rand : Srand.t;
  (* One table per (instrument kind, level); keys within a level are the
     admitted scopes. *)
  counters : (level * key, int ref) Hashtbl.t;
  gauges : (level * key, float ref) Hashtbl.t;
  histograms : (level * key, Histogram.t) Hashtbl.t;
  seen : (level * key, unit) Hashtbl.t;  (* admitted keys, all kinds *)
  mutable leaf_keys : int;
  mutable keys_dropped : int;
}

let fleet_scope = "fleet"

let create ?(leaf_cap = 4096) ?(bounds = Histogram.default_bounds)
    ?(exemplar_slots = 0) ?(seed = 0x0b5) ~group_of () =
  if leaf_cap < 1 then invalid_arg "Rollup.create: leaf_cap must be >= 1";
  {
    group_of;
    leaf_cap;
    bounds;
    slots = exemplar_slots;
    rand = Srand.create ~seed;
    counters = Hashtbl.create 256;
    gauges = Hashtbl.create 64;
    histograms = Hashtbl.create 128;
    seen = Hashtbl.create 256;
    leaf_keys = 0;
    keys_dropped = 0;
  }

(* Admission: aggregate levels always pass (their cardinality is
   structurally bounded); a new leaf key passes only under the cap.
   [admit_quiet] decides without touching the drop counter — route
   binding uses it, because a refused route counts one drop per
   *recording*, not one per bind. *)
let admit_quiet t level key =
  if Hashtbl.mem t.seen (level, key) then true
  else if level <> Leaf then begin
    Hashtbl.replace t.seen (level, key) ();
    true
  end
  else if t.leaf_keys < t.leaf_cap then begin
    Hashtbl.replace t.seen (level, key) ();
    t.leaf_keys <- t.leaf_keys + 1;
    true
  end
  else false

let admit t level key =
  admit_quiet t level key
  ||
  (t.keys_dropped <- t.keys_dropped + 1;
   false)

(* The three keys one leaf observation fans out to. *)
let targets t ~leaf ~server ~op =
  let fleet = (Fleet, { scope = fleet_scope; server; op }) in
  let group =
    match t.group_of leaf with
    | Some g -> [ (Group, { scope = g; server; op }) ]
    | None -> []
  in
  ((Leaf, { scope = leaf; server; op }) :: group) @ [ fleet ]

let incr ?(by = 1) t ~leaf ~server ~op =
  List.iter
    (fun (level, key) ->
      if admit t level key then
        match Hashtbl.find_opt t.counters (level, key) with
        | Some r -> r := !r + by
        | None -> Hashtbl.replace t.counters (level, key) (ref by))
    (targets t ~leaf ~server ~op)

let set_gauge t ~leaf ~server ~op v =
  List.iter
    (fun (level, key) ->
      if admit t level key then
        match Hashtbl.find_opt t.gauges (level, key) with
        | Some r ->
            (* Leaf keeps the latest reading; aggregates keep the peak —
               summing instantaneous readings across members would be
               meaningless, and the worst member is the alertable one. *)
            if level = Leaf then r := v else if v > !r then r := v
        | None -> Hashtbl.replace t.gauges (level, key) (ref v))
    (targets t ~leaf ~server ~op)

let hist_cell t level key =
  match Hashtbl.find_opt t.histograms (level, key) with
  | Some h -> h
  | None ->
      let h = Histogram.create ~bounds:t.bounds ~exemplar_slots:t.slots () in
      Hashtbl.replace t.histograms (level, key) h;
      h

let observe ?trace t ~leaf ~server ~op v =
  List.iter
    (fun (level, key) ->
      if admit t level key then
        Histogram.observe ?trace ~rand:t.rand (hist_cell t level key) v)
    (targets t ~leaf ~server ~op)

(* --- pre-resolved routes: the recording hot path --- *)

(* A route binds admission and the level cells once; recording through
   it is then pointer work only — no key construction, no hashing, no
   group lookup. A route whose leaf key the cap refused still carries
   the aggregate cells, and each recording through it counts one
   dropped observation, matching the keyed path's accounting. *)

type observe_route = {
  or_hists : Histogram.t array;
  or_owner : t;
  or_leaf_ok : bool;
}

let observe_route t ~leaf ~server ~op =
  let leaf_ok = ref true in
  let hists =
    List.filter_map
      (fun (level, key) ->
        if admit_quiet t level key then Some (hist_cell t level key)
        else begin
          leaf_ok := false;
          None
        end)
      (targets t ~leaf ~server ~op)
  in
  { or_hists = Array.of_list hists; or_owner = t; or_leaf_ok = !leaf_ok }

let route_observe ?trace r v =
  if not r.or_leaf_ok then
    r.or_owner.keys_dropped <- r.or_owner.keys_dropped + 1;
  let hists = r.or_hists in
  for i = 0 to Array.length hists - 1 do
    Histogram.observe ?trace ~rand:r.or_owner.rand hists.(i) v
  done

let keys_dropped t = t.keys_dropped
let key_count t = Hashtbl.length t.seen

let key_count_at t level =
  Hashtbl.fold
    (fun (l, _) () acc -> if l = level then acc + 1 else acc)
    t.seen 0

let sorted_bindings tbl level value =
  Hashtbl.fold
    (fun (l, k) v acc -> if l = level then (k, value v) :: acc else acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let counters t level = sorted_bindings t.counters level ( ! )
let gauges t level = sorted_bindings t.gauges level ( ! )
let histograms t level = sorted_bindings t.histograms level Fun.id

(* [merge a b]: a fresh rollup holding both inputs' aggregates, built
   by iterating *sorted* keys so the result is independent of hash
   order. No cap is applied — inputs were capped at recording time, and
   re-capping here would break associativity. *)
let merge a b =
  let m =
    create ~leaf_cap:(a.leaf_cap + b.leaf_cap) ~bounds:a.bounds
      ~exemplar_slots:a.slots ~group_of:a.group_of ()
  in
  m.keys_dropped <- a.keys_dropped + b.keys_dropped;
  let note level key = Hashtbl.replace m.seen (level, key) () in
  List.iter
    (fun level ->
      List.iter
        (fun (k, v) ->
          note level k;
          match Hashtbl.find_opt m.counters (level, k) with
          | Some r -> r := !r + v
          | None -> Hashtbl.replace m.counters (level, k) (ref v))
        (counters a level @ counters b level);
      List.iter
        (fun (k, v) ->
          note level k;
          match Hashtbl.find_opt m.gauges (level, k) with
          | Some r -> if v > !r then r := v
          | None -> Hashtbl.replace m.gauges (level, k) (ref v))
        (gauges a level @ gauges b level);
      List.iter
        (fun (k, h) ->
          note level k;
          match Hashtbl.find_opt m.histograms (level, k) with
          | Some existing ->
              Hashtbl.replace m.histograms (level, k)
                (Histogram.merge existing h)
          | None ->
              (* Merge with an empty histogram to copy: the input stays
                 live and must not share mutable state with the result. *)
              Hashtbl.replace m.histograms (level, k)
                (Histogram.merge h
                   (Histogram.create ~bounds:a.bounds
                      ~exemplar_slots:a.slots ())))
        (histograms a level @ histograms b level))
    [ Leaf; Group; Fleet ];
  m.leaf_keys <- key_count_at m Leaf;
  m

let key_json k =
  [
    ("scope", Json.String k.scope);
    ("server", Json.String k.server);
    ("op", Json.String k.op);
  ]

let level_json t level =
  let instrument extra k = Json.Obj (key_json k @ extra) in
  Json.Obj
    [
      ( "counters",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Int v) ] k)
             (counters t level)) );
      ( "gauges",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Float v) ] k)
             (gauges t level)) );
      ( "histograms",
        Json.List
          (List.map
             (fun (k, h) ->
               instrument [ ("histogram", Histogram.to_json h) ] k)
             (histograms t level)) );
    ]

let to_json t =
  Json.Obj
    [
      ("key_count", Json.Int (key_count t));
      ("keys_dropped", Json.Int t.keys_dropped);
      ("leaf", level_json t Leaf);
      ("group", level_json t Group);
      ("fleet", level_json t Fleet);
    ]

let pp ppf t =
  List.iter
    (fun level ->
      List.iter
        (fun (k, v) ->
          Fmt.pf ppf "%s %a = %d@." (level_to_string level) pp_key k v)
        (counters t level);
      List.iter
        (fun (k, v) ->
          Fmt.pf ppf "%s %a = %.3f@." (level_to_string level) pp_key k v)
        (gauges t level);
      List.iter
        (fun (k, h) ->
          Fmt.pf ppf "%s %a: %a@." (level_to_string level) pp_key k
            Histogram.pp h)
        (histograms t level))
    [ Leaf; Group; Fleet ]
