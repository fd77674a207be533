(* Tests for the switched multi-segment fabric: topology arithmetic,
   the shared-medium oracle (the fabric's Shared_medium path must
   reproduce the single-wire model bit for bit), per-link faults,
   bounded-port drop accounting, and multi-hop latency composition. *)

module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration

let check_float = Alcotest.(check (float 1e-9))

let tx = E.transmission_ms C.ethernet_3mbit ~payload_bytes:32
let prop = C.ethernet_3mbit.C.propagation_ms

(* --- topology arithmetic --- *)

let test_topology_paths () =
  let t = T.switched ~fan_in:4 in
  Alcotest.(check int) "edge of host 0" 0 (T.edge_of ~fan_in:4 0);
  Alcotest.(check int) "edge of host 7" 1 (T.edge_of ~fan_in:4 7);
  Alcotest.(check int) "same edge: 2 hops" 2 (T.hop_count t ~src:0 ~dst:3);
  Alcotest.(check int) "cross edge: 4 hops" 4 (T.hop_count t ~src:0 ~dst:7);
  Alcotest.(check int) "shared wire: 1 hop" 1
    (T.hop_count T.Shared_medium ~src:0 ~dst:7);
  (match T.path t ~src:1 ~dst:6 with
  | [ T.Host 1; T.Edge 0; T.Spine; T.Edge 1; T.Host 6 ] -> ()
  | p -> Alcotest.failf "unexpected path: %d nodes" (List.length p));
  Alcotest.(check bool) "uplink is a link" true (T.is_link t (T.Host 2, T.Edge 0));
  Alcotest.(check bool) "wrong edge is not" false
    (T.is_link t (T.Host 2, T.Edge 1));
  Alcotest.(check bool) "host-host is not" false
    (T.is_link t (T.Host 2, T.Host 3));
  Alcotest.(check bool) "shared medium has no links" false
    (T.is_link T.Shared_medium (T.Host 0, T.Host 1))

let test_node_string_round_trip () =
  List.iter
    (fun n ->
      match T.node_of_string (T.node_to_string n) with
      | Some n' when T.equal_node n n' -> ()
      | _ -> Alcotest.failf "round trip failed for %s" (T.node_to_string n))
    [ T.Host 0; T.Host 17; T.Edge 3; T.Spine ];
  Alcotest.(check bool) "garbage rejected" true
    (T.node_of_string "switch9" = None)

(* --- the shared-medium oracle --- *)

(* Reference single-wire model: frames serialize behind one
   wire-free-at cursor, then arrive after transmission + propagation.
   The fabric's Shared_medium path must produce exactly these arrival
   times in exactly this order — this is the bit-identity contract the
   E1-E13 baselines rest on. *)
let single_wire_reference sends =
  let wire_free = ref 0.0 in
  List.map
    (fun (at, src, dst, bytes) ->
      let start = Float.max at !wire_free in
      let duration = E.transmission_ms C.ethernet_3mbit ~payload_bytes:bytes in
      wire_free := start +. duration;
      (start +. duration +. prop, src, dst))
    sends

let prop_shared_matches_single_wire =
  QCheck.Test.make ~name:"Shared_medium reproduces the single-wire model"
    ~count:200
    QCheck.(
      small_list (triple (int_range 0 50) (pair (int_range 0 3) (int_range 0 3))
          (int_range 1 600)))
    (fun raw ->
      (* Sends at integer-ms marks, in list order at equal times —
         matching the engine's FIFO tie-break. *)
      let sends =
        List.filter_map
          (fun (at, (src, dst), bytes) ->
            if src = dst then None
            else Some (float_of_int at, src, dst, bytes))
          raw
        (* The engine executes in time order with FIFO tie-break, so the
           reference must walk the sends the same way. *)
        |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
      in
      let eng = Vsim.Engine.create () in
      let net = E.create ~config:C.ethernet_3mbit eng in
      for a = 0 to 3 do
        E.attach net a (fun _ -> ())
      done;
      let deliveries = ref [] in
      for a = 0 to 3 do
        E.set_handler net a (fun frame ->
            deliveries := (Vsim.Engine.now eng, frame.E.src, a) :: !deliveries)
      done;
      List.iter
        (fun (at, src, dst, bytes) ->
          Vsim.Engine.schedule_at eng at (fun () ->
              E.transmit net
                { E.src; dst = E.Unicast dst; payload = (); payload_bytes = bytes }))
        sends;
      Vsim.Engine.run eng;
      let got = List.rev !deliveries in
      let expected = single_wire_reference sends in
      if List.length got <> List.length expected then
        QCheck.Test.fail_reportf "delivered %d frames, expected %d"
          (List.length got) (List.length expected)
      else begin
        List.iter2
          (fun (gt, gs, gd) (et, es, ed) ->
            if gs <> es || gd <> ed || Float.abs (gt -. et) > 1e-9 then
              QCheck.Test.fail_reportf
                "delivery diverged: got %d->%d at %.6f, expected %d->%d at %.6f"
                gs gd gt es ed et)
          got expected;
        true
      end)

(* --- per-link faults --- *)

let make_switched ?(queue_cap = 256) ?(fan_in = 2) ?(hosts = 4) () =
  let eng = Vsim.Engine.create () in
  let net =
    E.create ~config:C.ethernet_3mbit ~topology:(T.switched ~fan_in) ~queue_cap
      eng
  in
  let hits = Array.make hosts 0 in
  for a = 0 to hosts - 1 do
    E.attach net a (fun _ -> hits.(a) <- hits.(a) + 1)
  done;
  (eng, net, hits)

let send net src dst =
  E.transmit net
    { E.src; dst = E.Unicast dst; payload = (); payload_bytes = 32 }

let test_link_cut () =
  let eng, net, hits = make_switched () in
  (* fan_in 2: hosts 0,1 on edge0; hosts 2,3 on edge1. *)
  E.set_link_up net (T.Edge 0) T.Spine false;
  Alcotest.(check bool) "cross-edge unreachable" false (E.reachable net 0 2);
  Alcotest.(check bool) "same edge still reachable" true (E.reachable net 0 1);
  Alcotest.(check bool) "reverse direction unaffected" true (E.reachable net 2 0);
  send net 0 2 (* dies at the cut uplink *);
  send net 0 1 (* same edge, unaffected *);
  send net 2 0 (* reverse path uses edge1->spine, up *);
  Vsim.Engine.run eng;
  Alcotest.(check int) "cross-edge frame dropped" 0 hits.(2);
  Alcotest.(check int) "same-edge delivered" 1 hits.(1);
  Alcotest.(check int) "reverse delivered" 1 hits.(0);
  Alcotest.(check int) "drop counted" 1 (E.counters net).E.frames_dropped;
  let cut =
    List.find
      (fun s -> s.E.ls_label = T.link_label (T.Edge 0, T.Spine))
      (E.link_stats net)
  in
  Alcotest.(check bool) "link reported down" false cut.E.ls_up;
  Alcotest.(check int) "per-link drop counted" 1 cut.E.ls_drops;
  E.set_link_up net (T.Edge 0) T.Spine true;
  Alcotest.(check bool) "healed" true (E.reachable net 0 2);
  send net 0 2;
  Vsim.Engine.run eng;
  Alcotest.(check int) "flows after heal" 1 hits.(2)

let test_queue_full_drops () =
  let eng, net, hits = make_switched ~queue_cap:2 () in
  (* Six same-instant frames against a 2-deep port: 2 admitted, 4
     tail-dropped before anything drains. *)
  for _ = 1 to 6 do
    send net 0 1
  done;
  Vsim.Engine.run eng;
  Alcotest.(check int) "two delivered" 2 hits.(1);
  Alcotest.(check int) "four dropped globally" 4
    (E.counters net).E.frames_dropped;
  let uplink =
    List.find
      (fun s -> s.E.ls_label = T.link_label (T.Host 0, T.Edge 0))
      (E.link_stats net)
  in
  Alcotest.(check int) "four dropped at the port" 4 uplink.E.ls_drops;
  Alcotest.(check int) "peak occupancy is the cap" 2 uplink.E.ls_queue_peak;
  Alcotest.(check int) "port drained" 0 uplink.E.ls_queued

let test_multi_hop_latency () =
  let eng, net, _ = make_switched () in
  let arrival = ref nan in
  E.set_handler net 2 (fun _ -> arrival := Vsim.Engine.now eng);
  send net 0 2;
  Vsim.Engine.run eng;
  (* Four store-and-forward hops, each serializing and propagating, plus
     a forwarding charge at each of the three switches on the path. *)
  check_float "cross-edge latency composes per hop"
    ((4.0 *. (tx +. prop)) +. (3.0 *. C.switch_forward_ms))
    !arrival;
  let eng, net, _ = make_switched () in
  let arrival = ref nan in
  E.set_handler net 1 (fun _ -> arrival := Vsim.Engine.now eng);
  send net 0 1;
  Vsim.Engine.run eng;
  check_float "same-edge latency: two hops, one switch"
    ((2.0 *. (tx +. prop)) +. C.switch_forward_ms)
    !arrival

let test_slow_link () =
  let eng, net, _ = make_switched () in
  E.set_link_extra_latency net (T.Edge 0) T.Spine 5.0;
  let arrival = ref nan in
  E.set_handler net 2 (fun _ -> arrival := Vsim.Engine.now eng);
  send net 0 2;
  Vsim.Engine.run eng;
  check_float "slow link adds its latency to the one hop"
    ((4.0 *. (tx +. prop)) +. (3.0 *. C.switch_forward_ms) +. 5.0)
    !arrival

let test_shared_medium_has_no_links () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  Alcotest.(check bool) "no queue bound" true (E.queue_capacity net = None);
  Alcotest.(check (list reject)) "no link stats" [] (E.link_stats net);
  Alcotest.check_raises "set_link_up raises"
    (Invalid_argument "Ethernet.set_link_up: the shared medium has no links")
    (fun () -> E.set_link_up net (T.Host 0) (T.Edge 0) false)

(* --- the array-indexed fabric against its list-walking model --- *)

(* One random script — unicast (same-edge, cross-edge and to itself),
   broadcast and multicast frames among faults landing mid-run (link
   cut, mend and slow, partitions, hosts down and up, slow hosts, loss)
   — is played into an [Ethernet.t] and into [Fabric_model] on two
   engines. A mended phase follows: every host and link back up, every
   partition healed, loss off, and one cross-edge frame that must
   arrive, so every script reaches delivery however its faults fell.
   Everything either reports must agree exactly: who got which frame
   when, the wire counters and every link's statistics. *)
let fabric_matches_model (seed, which_fan_in, which_cap) =
  let fan_in = List.nth [ 1; 4; 16; 64 ] which_fan_in in
  let queue_cap = List.nth [ 2; 8; 256 ] which_cap in
  let hosts = (2 * fan_in) + 2 in
  let config = C.ethernet_10mbit in
  let eng = Vsim.Engine.create () and model_eng = Vsim.Engine.create () in
  let net =
    E.create ~seed ~topology:(T.switched ~fan_in) ~queue_cap ~config eng
  in
  let model =
    Fabric_model.create ~seed ~fan_in ~queue_cap ~config model_eng
  in
  let log = ref [] and model_log = ref [] in
  for a = 0 to hosts - 1 do
    E.attach net a (fun f ->
        log := (Vsim.Engine.now eng, a, f.E.payload) :: !log);
    Fabric_model.attach model a (fun f ->
        model_log := (Vsim.Engine.now model_eng, a, f.E.payload) :: !model_log)
  done;
  let rng = Random.State.make [| seed |] in
  let addr () = Random.State.int rng hosts in
  for a = 0 to hosts - 1 do
    if Random.State.int rng 3 = 0 then begin
      E.join_group net ~group:1 ~addr:a;
      Fabric_model.join_group model ~group:1 ~addr:a
    end
  done;
  let link () =
    let a = addr () in
    let e = T.Edge (a / fan_in) in
    match Random.State.int rng 4 with
    | 0 -> (T.Host a, e)
    | 1 -> (e, T.Host a)
    | 2 -> (e, T.Spine)
    | _ -> (T.Spine, e)
  in
  let at = ref 0.0 and partitions = ref [] in
  for id = 0 to 150 do
    (at :=
       !at
       +.
       match Random.State.int rng 3 with
       | 0 -> 0.0
       | 1 -> Random.State.float rng 0.2
       | _ -> Random.State.float rng 3.0);
    let on_net, on_model =
      match Random.State.int rng 24 with
      | 0 | 1 ->
          let x, y = link () and up = Random.State.int rng 3 > 0 in
          ( (fun () -> E.set_link_up net x y up),
            fun () -> Fabric_model.set_link_up model x y up )
      | 2 ->
          let x, y = link () in
          let ms = if Random.State.bool rng then 0.0 else 1.5 in
          ( (fun () -> E.set_link_extra_latency net x y ms),
            fun () -> Fabric_model.set_link_extra_latency model x y ms )
      | 3 ->
          let a = addr () and b = addr () in
          if Random.State.bool rng then begin
            partitions := (a, b) :: !partitions;
            ( (fun () -> E.partition net a b),
              fun () -> Fabric_model.partition model a b )
          end
          else
            ((fun () -> E.heal net a b), fun () -> Fabric_model.heal model a b)
      | 4 ->
          let a = addr () and up = Random.State.bool rng in
          ( (fun () -> E.set_host_up net a up),
            fun () -> Fabric_model.set_host_up model a up )
      | 5 ->
          let a = addr () in
          let ms = if Random.State.bool rng then 0.0 else 0.7 in
          ( (fun () -> E.set_extra_latency net a ms),
            fun () -> Fabric_model.set_extra_latency model a ms )
      | 6 ->
          let p = List.nth [ 0.0; 0.1; 0.3 ] (Random.State.int rng 3) in
          ( (fun () -> E.set_loss_probability net p),
            fun () -> Fabric_model.set_loss_probability model p )
      | k ->
          let src = addr () in
          let dst =
            match k mod 6 with
            | 0 -> E.Broadcast
            | 1 -> E.Multicast 1
            | 2 -> E.Unicast src
            | 3 -> E.Unicast ((src / fan_in * fan_in) + Random.State.int rng fan_in)
            | _ -> E.Unicast (addr ())
          in
          let frame =
            {
              E.src;
              dst;
              payload = id;
              payload_bytes = 32 + Random.State.int rng 1400;
            }
          in
          ( (fun () -> E.transmit net frame),
            fun () -> Fabric_model.transmit model frame )
    in
    Vsim.Engine.schedule_at eng !at on_net;
    Vsim.Engine.schedule_at model_eng !at on_model
  done;
  Vsim.Engine.run eng;
  Vsim.Engine.run model_eng;
  for a = 0 to hosts - 1 do
    let e = T.Edge (a / fan_in) in
    List.iter
      (fun (x, y) ->
        E.set_link_up net x y true;
        Fabric_model.set_link_up model x y true)
      [ (T.Host a, e); (e, T.Host a); (e, T.Spine); (T.Spine, e) ];
    E.set_host_up net a true;
    Fabric_model.set_host_up model a true
  done;
  List.iter
    (fun (a, b) ->
      E.heal net a b;
      Fabric_model.heal model a b)
    !partitions;
  E.set_loss_probability net 0.0;
  Fabric_model.set_loss_probability model 0.0;
  let last =
    { E.src = 0; dst = E.Unicast (hosts - 1); payload = -1; payload_bytes = 64 }
  in
  E.transmit net last;
  Fabric_model.transmit model last;
  Vsim.Engine.run eng;
  Vsim.Engine.run model_eng;
  let c = E.counters net and mc = model.Fabric_model.counters in
  if List.rev !log <> List.rev !model_log then
    QCheck.Test.fail_reportf "delivery logs differ (%d vs %d deliveries)"
      (List.length !log) (List.length !model_log);
  if
    (c.E.frames_sent, c.E.frames_delivered, c.E.frames_dropped, c.E.bytes_sent)
    <> ( mc.E.frames_sent,
         mc.E.frames_delivered,
         mc.E.frames_dropped,
         mc.E.bytes_sent )
  then QCheck.Test.fail_report "wire counters differ";
  if E.link_stats net <> Fabric_model.link_stats model then
    QCheck.Test.fail_report "link statistics differ";
  if Vsim.Engine.executed eng <> Vsim.Engine.executed model_eng then
    QCheck.Test.fail_report "event counts differ";
  if not (List.exists (fun (_, a, id) -> a = hosts - 1 && id = -1) !log) then
    QCheck.Test.fail_report "the mended phase's frame was lost";
  (* The script must reach the cases the model exists for. *)
  c.E.frames_delivered > 0

let prop_fabric_matches_model =
  QCheck.Test.make ~name:"switched fabric equals its list-walking model"
    ~count:60
    QCheck.(triple (int_bound 1_000_000) (int_bound 3) (int_bound 2))
    fabric_matches_model

(* Scripts whose faults left no frame delivered before the mended
   phase: fan-in 1, queue cap 2. *)
let test_fabric_regressions () =
  List.iter
    (fun case ->
      if not (fabric_matches_model case) then
        let seed, _, _ = case in
        Alcotest.failf "seed %d: nothing delivered" seed)
    [ (844565, 0, 0); (944219, 0, 0) ]

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "net.fabric",
      [
        Alcotest.test_case "topology paths" `Quick test_topology_paths;
        Alcotest.test_case "node strings" `Quick test_node_string_round_trip;
        qcheck prop_shared_matches_single_wire;
        Alcotest.test_case "link cut and heal" `Quick test_link_cut;
        Alcotest.test_case "queue-full drops" `Quick test_queue_full_drops;
        Alcotest.test_case "multi-hop latency" `Quick test_multi_hop_latency;
        Alcotest.test_case "slow link" `Quick test_slow_link;
        Alcotest.test_case "shared medium has no links" `Quick
          test_shared_medium_has_no_links;
        qcheck prop_fabric_matches_model;
        Alcotest.test_case "fabric equals its model on past failures" `Quick
          test_fabric_regressions;
      ] );
  ]
