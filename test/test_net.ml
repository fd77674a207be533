(* Tests for the simulated Ethernet: latency model, broadcast/multicast
   delivery, wire serialization, and fault injection. *)

module E = Vnet.Ethernet
module C = Vnet.Calibration

let check_float = Alcotest.(check (float 1e-9))

let make_net ?(config = C.ethernet_3mbit) () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config eng in
  (eng, net)

let test_transmission_time () =
  (* 32-byte payload + 64-byte header at 3 Mbit: 96*8/3e6 s = 0.256 ms *)
  check_float "3Mbit small frame" 0.256
    (E.transmission_ms C.ethernet_3mbit ~payload_bytes:32);
  check_float "10Mbit small frame" 0.0768
    (E.transmission_ms C.ethernet_10mbit ~payload_bytes:32)

let test_unicast_delivery () =
  let eng, net = make_net () in
  let arrived = ref nan in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun frame ->
      Alcotest.(check int) "payload" 99 frame.E.payload;
      arrived := Vsim.Engine.now eng);
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = 99; payload_bytes = 32 };
  Vsim.Engine.run eng;
  check_float "arrival = transmission + propagation" (0.256 +. 0.01) !arrived

let test_wire_serializes () =
  let eng, net = make_net () in
  let arrivals = ref [] in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun _ -> arrivals := Vsim.Engine.now eng :: !arrivals);
  (* Two frames queued at t=0 must serialize on the wire. *)
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 32 };
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 32 };
  Vsim.Engine.run eng;
  match List.rev !arrivals with
  | [ a; b ] ->
      check_float "first frame" 0.266 a;
      check_float "second waits for wire" (0.256 +. 0.266) b
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_broadcast_excludes_sender () =
  let eng, net = make_net () in
  let hits = ref [] in
  List.iter (fun a -> E.attach net a (fun _ -> hits := a :: !hits)) [ 1; 2; 3; 4 ];
  E.transmit net { E.src = 1; dst = E.Broadcast; payload = (); payload_bytes = 16 };
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "everyone but sender" [ 2; 3; 4 ]
    (List.sort compare !hits)

let test_multicast_membership () =
  let eng, net = make_net () in
  let hits = ref [] in
  List.iter (fun a -> E.attach net a (fun _ -> hits := a :: !hits)) [ 1; 2; 3; 4 ];
  E.join_group net ~group:7 ~addr:2;
  E.join_group net ~group:7 ~addr:4;
  E.join_group net ~group:8 ~addr:3;
  E.transmit net { E.src = 1; dst = E.Multicast 7; payload = (); payload_bytes = 16 };
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "only group 7" [ 2; 4 ] (List.sort compare !hits);
  E.leave_group net ~group:7 ~addr:2;
  Alcotest.(check (list int)) "membership updated" [ 4 ] (E.group_members net 7)

let test_down_host_drops () =
  let eng, net = make_net () in
  let hits = ref 0 in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun _ -> incr hits);
  E.set_host_up net 2 false;
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 16 };
  Vsim.Engine.run eng;
  Alcotest.(check int) "no delivery to down host" 0 !hits;
  Alcotest.(check int) "counted as dropped" 1 (E.counters net).E.frames_dropped

let test_crash_in_flight () =
  (* A host that goes down while a frame is in flight must not receive it. *)
  let eng, net = make_net () in
  let hits = ref 0 in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun _ -> incr hits);
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 16 };
  Vsim.Engine.schedule ~delay:0.1 eng (fun () -> E.set_host_up net 2 false);
  Vsim.Engine.run eng;
  Alcotest.(check int) "in-flight frame dropped" 0 !hits

let test_partition () =
  let eng, net = make_net () in
  let hits = ref 0 in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun _ -> incr hits);
  E.partition net 1 2;
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 16 };
  Vsim.Engine.run eng;
  Alcotest.(check int) "partitioned" 0 !hits;
  E.heal net 1 2;
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 16 };
  Vsim.Engine.run eng;
  Alcotest.(check int) "healed" 1 !hits

let test_loss () =
  let eng, net = make_net () in
  let hits = ref 0 in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun _ -> incr hits);
  E.set_loss_probability net 1.0;
  for _ = 1 to 10 do
    E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 16 }
  done;
  Vsim.Engine.run eng;
  Alcotest.(check int) "all lost" 0 !hits;
  E.set_loss_probability net 0.0;
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 16 };
  Vsim.Engine.run eng;
  Alcotest.(check int) "lossless again" 1 !hits

let test_counters () =
  let eng, net = make_net () in
  E.attach net 1 (fun _ -> ());
  E.attach net 2 (fun _ -> ());
  E.transmit net { E.src = 1; dst = E.Unicast 2; payload = (); payload_bytes = 100 };
  Vsim.Engine.run eng;
  let c = E.counters net in
  Alcotest.(check int) "sent" 1 c.E.frames_sent;
  Alcotest.(check int) "delivered" 1 c.E.frames_delivered;
  Alcotest.(check int) "bytes incl header" 164 c.E.bytes_sent

let test_duplicate_host () =
  let _, net = make_net () in
  E.attach net 1 (fun _ -> ());
  Alcotest.check_raises "duplicate address" (E.Duplicate_host 1) (fun () ->
      E.attach net 1 (fun _ -> ()))

let prop_transmission_monotone =
  QCheck.Test.make ~name:"transmission time grows with payload" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 0 10000))
    (fun (a, b) ->
      let smaller = min a b and larger = max a b in
      E.transmission_ms C.ethernet_3mbit ~payload_bytes:smaller
      <= E.transmission_ms C.ethernet_3mbit ~payload_bytes:larger)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "net.ethernet",
      [
        Alcotest.test_case "transmission time" `Quick test_transmission_time;
        Alcotest.test_case "unicast delivery" `Quick test_unicast_delivery;
        Alcotest.test_case "wire serializes" `Quick test_wire_serializes;
        Alcotest.test_case "broadcast" `Quick test_broadcast_excludes_sender;
        Alcotest.test_case "multicast" `Quick test_multicast_membership;
        Alcotest.test_case "down host" `Quick test_down_host_drops;
        Alcotest.test_case "crash in flight" `Quick test_crash_in_flight;
        Alcotest.test_case "partition" `Quick test_partition;
        Alcotest.test_case "loss" `Quick test_loss;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "duplicate host" `Quick test_duplicate_host;
        qcheck prop_transmission_monotone;
      ] );
  ]
