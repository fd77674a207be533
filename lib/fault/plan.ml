(* A fault plan: the pure data describing what breaks when.

   A plan is a time-sorted list of fault actions — host crash/restart,
   pairwise partition/heal, loss bursts, slow-host latency inflation —
   and is a pure function of its inputs: [generate] draws from its own
   PRNG seeded by [seed] and never touches an engine or clock, so the
   same seed replays the identical plan. Applying a plan to a live
   scenario is {!Injector}'s job. *)

module Ethernet = Vnet.Ethernet
module Topology = Vnet.Topology

type link = Topology.node * Topology.node

type action =
  | Crash of Ethernet.addr
  | Restart of Ethernet.addr
  | Partition of Ethernet.addr * Ethernet.addr
  | Heal of Ethernet.addr * Ethernet.addr
  | Loss of float  (* set the network loss probability *)
  | Slow of Ethernet.addr * float  (* extra receive latency, ms; 0 restores *)
  | Link_cut of link  (* cut one directed link of a switched fabric *)
  | Link_heal of link
  | Link_slow of link * float  (* extra per-hop latency, ms; 0 restores *)

type event = { at : float; action : action }

type t = { seed : int; events : event list }  (* sorted by [at], stable *)

let pp_action ppf = function
  | Crash a -> Fmt.pf ppf "crash host%d" a
  | Restart a -> Fmt.pf ppf "restart host%d" a
  | Partition (a, b) -> Fmt.pf ppf "partition host%d/host%d" a b
  | Heal (a, b) -> Fmt.pf ppf "heal host%d/host%d" a b
  | Loss p -> Fmt.pf ppf "loss %.3f" p
  | Slow (a, ms) -> Fmt.pf ppf "slow host%d +%.1fms" a ms
  | Link_cut l -> Fmt.pf ppf "cut link %a" Topology.pp_link l
  | Link_heal l -> Fmt.pf ppf "heal link %a" Topology.pp_link l
  | Link_slow (l, ms) -> Fmt.pf ppf "slow link %a +%.1fms" Topology.pp_link l ms

let pp_event ppf e = Fmt.pf ppf "@[t=%.0f %a@]" e.at pp_action e.action

let pp ppf t =
  Fmt.pf ppf "@[<v>plan seed %d (%d events)@,%a@]" t.seed
    (List.length t.events)
    Fmt.(list ~sep:cut pp_event)
    t.events

let to_string t = Fmt.str "%a" pp t

let action_to_json = function
  | Crash a -> Vobs.Json.Obj [ ("kind", Vobs.Json.String "crash"); ("host", Vobs.Json.Int a) ]
  | Restart a ->
      Vobs.Json.Obj [ ("kind", Vobs.Json.String "restart"); ("host", Vobs.Json.Int a) ]
  | Partition (a, b) ->
      Vobs.Json.Obj
        [
          ("kind", Vobs.Json.String "partition");
          ("a", Vobs.Json.Int a);
          ("b", Vobs.Json.Int b);
        ]
  | Heal (a, b) ->
      Vobs.Json.Obj
        [
          ("kind", Vobs.Json.String "heal");
          ("a", Vobs.Json.Int a);
          ("b", Vobs.Json.Int b);
        ]
  | Loss p ->
      Vobs.Json.Obj [ ("kind", Vobs.Json.String "loss"); ("p", Vobs.Json.Float p) ]
  | Slow (a, ms) ->
      Vobs.Json.Obj
        [
          ("kind", Vobs.Json.String "slow");
          ("host", Vobs.Json.Int a);
          ("ms", Vobs.Json.Float ms);
        ]
  | Link_cut (a, b) ->
      Vobs.Json.Obj
        [
          ("kind", Vobs.Json.String "link-cut");
          ("a", Vobs.Json.String (Topology.node_to_string a));
          ("b", Vobs.Json.String (Topology.node_to_string b));
        ]
  | Link_heal (a, b) ->
      Vobs.Json.Obj
        [
          ("kind", Vobs.Json.String "link-heal");
          ("a", Vobs.Json.String (Topology.node_to_string a));
          ("b", Vobs.Json.String (Topology.node_to_string b));
        ]
  | Link_slow ((a, b), ms) ->
      Vobs.Json.Obj
        [
          ("kind", Vobs.Json.String "link-slow");
          ("a", Vobs.Json.String (Topology.node_to_string a));
          ("b", Vobs.Json.String (Topology.node_to_string b));
          ("ms", Vobs.Json.Float ms);
        ]

let to_json t =
  Vobs.Json.Obj
    [
      ("seed", Vobs.Json.Int t.seed);
      ( "events",
        Vobs.Json.List
          (List.map
             (fun e ->
               Vobs.Json.Obj
                 [
                   ("at_ms", Vobs.Json.Float e.at);
                   ("action", action_to_json e.action);
                 ])
             t.events) );
    ]

(* Stable sort by time: simultaneous events keep construction order, so
   a plan renders (and applies) identically on every run. *)
let sorted events = List.stable_sort (fun a b -> compare a.at b.at) events

let of_events ?(seed = 0) events = { seed; events = sorted events }

(* --- episode combinators (each returns its events; compose freely) --- *)

let crash_restart ~addr ~at ~downtime_ms =
  [ { at; action = Crash addr }; { at = at +. downtime_ms; action = Restart addr } ]

let partition_heal ~a ~b ~at ~duration_ms =
  [
    { at; action = Partition (a, b) };
    { at = at +. duration_ms; action = Heal (a, b) };
  ]

let loss_burst ~at ~duration_ms ~p =
  [ { at; action = Loss p }; { at = at +. duration_ms; action = Loss 0.0 } ]

let slow_host ~addr ~at ~duration_ms ~ms =
  [
    { at; action = Slow (addr, ms) };
    { at = at +. duration_ms; action = Slow (addr, 0.0) };
  ]

(* --- seeded generation --- *)

(* The loss probabilities a generated loss burst draws from. *)
let loss_levels = [ 0.05; 0.2 ]

(* Draw a randomized day of trouble: episodes spaced by exponential
   gaps, each picking one fault kind among those the host lists allow
   (loss bursts are always allowed). Every fault is paired with its
   recovery, and every episode completes before [duration_ms]
   (recoveries are clamped), so a generated plan always converges: by
   the horizon all hosts are up, partitions healed, loss zero and no
   host slowed. *)
let generate ~seed ~duration_ms ?(warmup_ms = 5_000.0)
    ?(mean_gap_ms = 8_000.0) ?(crashable = []) ?(partitionable = [])
    ?(slowable = []) () =
  let prng = Vsim.Prng.create ~seed in
  let pick xs = List.nth xs (Vsim.Prng.int prng (List.length xs)) in
  let kinds =
    List.concat
      [
        (if crashable <> [] then [ `Crash ] else []);
        (if List.length partitionable >= 2 then [ `Partition ] else []);
        [ `Loss ];
        (if slowable <> [] then [ `Slow ] else []);
      ]
  in
  let events = ref [] in
  let horizon = duration_ms *. 0.9 in
  let clamp at d = Float.min (at +. d) horizon in
  let t = ref (warmup_ms +. Vsim.Prng.exponential prng ~mean:mean_gap_ms) in
  while !t < horizon -. 1_000.0 do
    let at = !t in
    let ep =
      match pick kinds with
      | `Crash ->
          let addr = pick crashable in
          let downtime = 1_000.0 +. Vsim.Prng.exponential prng ~mean:2_000.0 in
          crash_restart ~addr ~at ~downtime_ms:(clamp at downtime -. at)
      | `Partition ->
          let a = pick partitionable in
          let b = pick (List.filter (fun x -> x <> a) partitionable) in
          let d = 500.0 +. Vsim.Prng.exponential prng ~mean:1_500.0 in
          partition_heal ~a ~b ~at ~duration_ms:(clamp at d -. at)
      | `Loss ->
          let p = pick loss_levels in
          let d = 500.0 +. Vsim.Prng.exponential prng ~mean:2_000.0 in
          loss_burst ~at ~duration_ms:(clamp at d -. at) ~p
      | `Slow ->
          let addr = pick slowable in
          let ms = 1.0 +. Vsim.Prng.float prng *. 4.0 in
          let d = 1_000.0 +. Vsim.Prng.exponential prng ~mean:3_000.0 in
          slow_host ~addr ~at ~duration_ms:(clamp at d -. at) ~ms
    in
    events := ep @ !events;
    t := !t +. Vsim.Prng.exponential prng ~mean:mean_gap_ms
  done;
  { seed; events = sorted !events }
