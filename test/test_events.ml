(* The kernel and wire event stream, end to end.

   [drive] reports through every kernel and wire site at least once:
   Send, Receive, Reply, Forward, MoveFrom, MoveTo, GroupSend,
   ForwardGroup, Destroy, Crash and Restart; an admission shed,
   retransmission and forward-recovery probes, a balancer pick; frames
   transmitted, lost, dropped on a down link, tail-dropped, and dropped
   at a down or partitioned host; link state and latency, loss
   probability, a slow host, a partition and its heal. [golden] is what
   the timeline ("T"), the flight recorder ("R") and the metrics
   registry ("M") held for this run before the kernel and the wire
   reported through one stream — three sinks with their own text and a
   flush — so the stream must reproduce every line, the registry's
   zero-valued per-transaction keys included. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration

let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

let drive attach =
  let eng = Vsim.Engine.create () in
  let net =
    E.create ~config:C.ethernet_3mbit ~topology:(T.switched ~fan_in:2)
      ~queue_cap:1 eng
  in
  let domain = K.create_domain ~cost eng net in
  attach domain;
  let a = K.boot_host domain ~name:"a" 1 in
  let b = K.boot_host domain ~name:"b" 2 in
  let c = K.boot_host domain ~name:"c" 4 in
  let d = K.boot_host domain ~name:"d" 5 in
  let serve host name f =
    K.spawn host ~name (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          f self msg sender;
          loop ()
        in
        loop ())
  in
  let reply self msg sender = ignore (K.reply self ~to_:sender msg) in
  let echo_c =
    serve c "echo-c" (fun self msg sender ->
        if msg = "slower" then Vsim.Proc.delay eng 600.0;
        reply self msg sender)
  in
  let echo_b =
    serve b "echo-b" (fun self msg sender ->
        if msg = "move" then begin
          ignore (K.move_from self ~sender ~len:4);
          ignore (K.move_to self ~sender (Bytes.of_string "abcd"))
        end;
        if msg = "slow" then Vsim.Proc.delay eng 100.0;
        reply self msg sender)
  in
  let fwd =
    serve b "fwd" (fun self msg sender ->
        ignore (K.forward self ~from_:sender ~to_:echo_c msg))
  in
  let group = K.create_group domain in
  List.iter
    (fun host -> K.join_group host ~group (serve host "member" reply))
    [ b; c ];
  let gfwd =
    serve b "gfwd" (fun self msg sender ->
        ignore (K.forward_group self ~from_:sender ~group msg))
  in
  let shedder = serve b "shedder" reply in
  K.set_admission domain shedder (fun ~now:_ ~depth:_ _ -> K.Shed "busy");
  K.register_service_group domain ~service:7 ~group
    Vkernel.Balancer.Round_robin;
  let sleeper = serve c "sleeper" reply in
  let victim = serve d "victim" reply in
  let at host t body =
    ignore
      (K.spawn host (fun self ->
           Vsim.Proc.delay eng t;
           body self))
  in
  let send target msg self = ignore (K.send self target msg) in
  let later t f = Vsim.Engine.schedule_at eng t f in
  at a 0.0 (fun self ->
      ignore (K.send self ~buffer:(Bytes.make 8 'x') echo_b "move"));
  at a 1000.0 (send fwd "hi");
  at a 2000.0 (send echo_b "slow");
  at b 3000.0 (send fwd "slower");
  at a 5000.0 (fun self -> ignore (K.send_group self ~group "g"));
  at a 6000.0 (send gfwd "gf");
  at a 7000.0 (send shedder "x");
  at a 8000.0 (fun self ->
      ignore (K.get_pid self ~service:7 Vkernel.Service.Remote));
  later 9000.0 (fun () -> ignore (K.destroy_process domain sleeper));
  later 10000.0 (fun () -> E.set_loss_probability net 1.0);
  at a 10000.0 (send echo_b "lost");
  later 10100.0 (fun () -> E.set_loss_probability net 0.0);
  later 11000.0 (fun () -> E.set_extra_latency net 2 1.5);
  at a 11000.0 (send echo_b "slow-host");
  later 11500.0 (fun () -> E.set_extra_latency net 2 0.0);
  later 12000.0 (fun () ->
      E.set_link_extra_latency net (T.Edge 0) T.Spine 0.25);
  at a 12000.0 (send echo_b "link-latency");
  later 12500.0 (fun () -> E.set_link_extra_latency net (T.Edge 0) T.Spine 0.0);
  later 13000.0 (fun () -> E.set_link_up net (T.Edge 0) T.Spine false);
  at a 13000.0 (send echo_b "down-link");
  later 13050.0 (fun () -> E.set_link_up net (T.Edge 0) T.Spine true);
  at a 14000.0 (send echo_b "burst-1");
  at a 14000.0 (send echo_b "burst-2");
  later 15000.0 (fun () -> E.partition net 1 2);
  at a 15000.0 (send echo_b "partitioned");
  later 15100.0 (fun () -> E.heal net 1 2);
  later 16000.0 (fun () -> K.crash_host d);
  at a 16010.0 (send victim "down");
  later 16100.0 (fun () -> K.restart_host d);
  Vsim.Engine.run eng

let golden =
  [
    "T 0.000 ipc Send 1.6203 -> 2.32271";
    "T 0.510 net host1 -> host2 (36B payload)";
    "T 2.181 ipc Receive 2.32271 <- 1.6203";
    "T 2.181 ipc MoveFrom 2.32271 <- 1.6203 (4B)";
    "T 2.691 net host2 -> host1 (16B payload)";
    "T 6.788 net host1 -> host2 (20B payload)";
    "T 9.784 ipc MoveTo 2.32271 -> 1.6203 (4B)";
    "T 12.424 net host2 -> host1 (20B payload)";
    "T 15.420 net host1 -> host2 (16B payload)";
    "T 16.877 ipc Reply 2.32271 -> 1.6203";
    "T 17.387 net host2 -> host1 (36B payload)";
    "T 1000.000 ipc Send 1.3350 -> 2.14778";
    "T 1000.510 net host1 -> host2 (34B payload)";
    "T 1002.159 ipc Receive 2.14778 <- 1.3350";
    "T 1002.159 ipc Forward 2.14778: 1.3350 -> 3.42542";
    "T 1002.669 net host2 -> host4 (34B payload)";
    "T 1004.319 ipc Receive 3.42542 <- 1.3350";
    "T 1004.319 ipc Reply 3.42542 -> 1.3350";
    "T 1004.829 net host4 -> host1 (34B payload)";
    "T 2000.000 ipc Send 1.26798 -> 2.32271";
    "T 2000.510 net host1 -> host2 (36B payload)";
    "T 2002.181 ipc Receive 2.32271 <- 1.26798";
    "T 2040.510 net host1 -> host2 (36B payload)";
    "T 2080.510 net host1 -> host2 (36B payload)";
    "T 2102.181 ipc Reply 2.32271 -> 1.26798";
    "T 2102.691 net host2 -> host1 (36B payload)";
    "T 3000.000 ipc Send 2.5215 -> 2.14778";
    "T 3000.385 ipc Receive 2.14778 <- 2.5215";
    "T 3000.385 ipc Forward 2.14778: 2.5215 -> 3.42542";
    "T 3000.895 net host2 -> host4 (38B payload)";
    "T 3002.587 ipc Receive 3.42542 <- 2.5215";
    "T 3500.895 net host2 -> host4 (38B payload)";
    "T 3602.587 ipc Reply 3.42542 -> 2.5215";
    "T 3603.097 net host4 -> host2 (38B payload)";
    "T 5000.000 ipc GroupSend 1.8067 -> group1";
    "T 5000.510 net host1 -> group1 (33B payload)";
    "T 5002.149 ipc Receive 2.49043 <- 1.8067";
    "T 5002.149 ipc Reply 2.49043 -> 1.8067";
    "T 5002.149 ipc Receive 3.7419 <- 1.8067";
    "T 5002.149 ipc Reply 3.7419 -> 1.8067";
    "T 5002.659 net host2 -> host1 (33B payload)";
    "T 5002.659 net host4 -> host1 (33B payload)";
    "T 6000.000 ipc Send 1.64262 -> 2.17834";
    "T 6000.510 net host1 -> host2 (34B payload)";
    "T 6002.159 ipc Receive 2.17834 <- 1.64262";
    "T 6002.159 ipc ForwardGroup 2.17834: 1.64262 -> group1";
    "T 6002.669 net host2 -> group1 (34B payload)";
    "T 6003.054 ipc Receive 2.49043 <- 1.64262";
    "T 6003.054 ipc Reply 2.49043 -> 1.64262";
    "T 6003.564 net host2 -> host1 (34B payload)";
    "T 6004.319 ipc Receive 3.7419 <- 1.64262";
    "T 6004.319 ipc Reply 3.7419 -> 1.64262";
    "T 6004.829 net host4 -> host1 (34B payload)";
    "T 7000.000 ipc Send 1.46221 -> 2.146";
    "T 7000.510 net host1 -> host2 (33B payload)";
    "T 7002.149 net host2 -> host1 (36B payload)";
    "T 9000.000 ipc Destroy 3.29125";
    "T 10000.000 net loss probability := 1.000";
    "T 10000.000 ipc Send 1.23664 -> 2.32271";
    "T 10000.510 net host1 -> host2 (36B payload)";
    "T 10040.510 net host1 -> host2 (36B payload)";
    "T 10080.510 net host1 -> host2 (36B payload)";
    "T 10100.000 net loss probability := 0.000";
    "T 10120.510 net host1 -> host2 (36B payload)";
    "T 10122.181 ipc Receive 2.32271 <- 1.23664";
    "T 10122.181 ipc Reply 2.32271 -> 1.23664";
    "T 10122.691 net host2 -> host1 (36B payload)";
    "T 11000.000 net host2 extra receive latency := 1.500ms";
    "T 11000.000 ipc Send 1.5126 -> 2.32271";
    "T 11000.510 net host1 -> host2 (41B payload)";
    "T 11003.734 ipc Receive 2.32271 <- 1.5126";
    "T 11003.734 ipc Reply 2.32271 -> 1.5126";
    "T 11004.244 net host2 -> host1 (41B payload)";
    "T 11500.000 net host2 extra receive latency := 0.000ms";
    "T 12000.000 ipc Send 1.49503 -> 2.32271";
    "T 12000.510 net host1 -> host2 (44B payload)";
    "T 12002.516 ipc Receive 2.32271 <- 1.49503";
    "T 12002.516 ipc Reply 2.32271 -> 1.49503";
    "T 12003.026 net host2 -> host1 (44B payload)";
    "T 13000.000 ipc Send 1.9171 -> 2.32271";
    "T 13000.510 net host1 -> host2 (41B payload)";
    "T 13040.510 net host1 -> host2 (41B payload)";
    "T 13080.510 net host1 -> host2 (41B payload)";
    "T 13082.234 ipc Receive 2.32271 <- 1.9171";
    "T 13082.234 ipc Reply 2.32271 -> 1.9171";
    "T 13082.744 net host2 -> host1 (41B payload)";
    "T 14000.000 ipc Send 1.39985 -> 2.32271";
    "T 14000.000 ipc Send 1.38386 -> 2.32271";
    "T 14000.510 net host1 -> host2 (39B payload)";
    "T 14000.510 net host1 -> host2 (39B payload)";
    "T 14002.213 ipc Receive 2.32271 <- 1.39985";
    "T 14002.213 ipc Reply 2.32271 -> 1.39985";
    "T 14002.723 net host2 -> host1 (39B payload)";
    "T 14040.510 net host1 -> host2 (39B payload)";
    "T 14042.213 ipc Receive 2.32271 <- 1.38386";
    "T 14042.213 ipc Reply 2.32271 -> 1.38386";
    "T 14042.723 net host2 -> host1 (39B payload)";
    "T 15000.000 ipc Send 1.42154 -> 2.32271";
    "T 15000.510 net host1 -> host2 (43B payload)";
    "T 15040.510 net host1 -> host2 (43B payload)";
    "T 15080.510 net host1 -> host2 (43B payload)";
    "T 15120.510 net host1 -> host2 (43B payload)";
    "T 15122.255 ipc Receive 2.32271 <- 1.42154";
    "T 15122.255 ipc Reply 2.32271 -> 1.42154";
    "T 15122.765 net host2 -> host1 (43B payload)";
    "T 16000.000 ipc Crash host d";
    "T 16010.000 ipc Send 1.42961 -> 4.42473";
    "T 16010.510 net host1 -> host5 (36B payload)";
    "T 16050.510 net host1 -> host5 (36B payload)";
    "T 16090.510 net host1 -> host5 (36B payload)";
    "T 16100.000 ipc Restart host d";
    "T 16130.510 net host1 -> host5 (36B payload)";
    "T 16132.181 net host5 -> host1 (16B payload)";
    "R t=      0.0 kernel   a          send 1.6203 -> 2.32271";
    "R t=   1000.0 kernel   a          send 1.3350 -> 2.14778";
    "R t=   1002.2 kernel   b          forward 2.14778: 1.3350 -> 3.42542";
    "R t=   2000.0 kernel   a          send 1.26798 -> 2.32271";
    "R t=   2040.5 kernel   a          retransmit-probe txn 3";
    "R t=   2080.5 kernel   a          retransmit-probe txn 3";
    "R t=   3000.0 kernel   b          send 2.5215 -> 2.14778";
    "R t=   3000.4 kernel   b          forward 2.14778: 2.5215 -> 3.42542";
    "R t=   3500.9 kernel   b          forward-recovery-probe txn 4 (attempt 1)";
    "R t=   5003.2 net      host4      frame tail-dropped at full port spine->edge0";
    "R t=   6000.0 kernel   a          send 1.64262 -> 2.17834";
    "R t=   7000.0 kernel   a          send 1.46221 -> 2.146";
    "R t=   7002.1 admission b          shed 1.46221 -> 2.146 (depth 0)";
    "R t=   8000.1 balancer a          pick service 7 -> 2.49043 (2 reachable)";
    "R t=  10000.0 net      net        loss probability := 1.000";
    "R t=  10000.0 kernel   a          send 1.23664 -> 2.32271";
    "R t=  10000.8 net      host1      frame lost -> host2 (36B)";
    "R t=  10040.5 kernel   a          retransmit-probe txn 8";
    "R t=  10040.8 net      host1      frame lost -> host2 (36B)";
    "R t=  10080.5 kernel   a          retransmit-probe txn 8";
    "R t=  10080.8 net      host1      frame lost -> host2 (36B)";
    "R t=  10100.0 net      net        loss probability := 0.000";
    "R t=  10120.5 kernel   a          retransmit-probe txn 8";
    "R t=  11000.0 net      host2      extra receive latency := 1.500ms";
    "R t=  11000.0 kernel   a          send 1.5126 -> 2.32271";
    "R t=  11500.0 net      host2      extra receive latency := 0.000ms";
    "R t=  12000.0 net      net        link edge0->spine extra latency := 0.250ms";
    "R t=  12000.0 kernel   a          send 1.49503 -> 2.32271";
    "R t=  12500.0 net      net        link edge0->spine extra latency := 0.000ms";
    "R t=  13000.0 net      net        link edge0->spine down";
    "R t=  13000.0 kernel   a          send 1.9171 -> 2.32271";
    "R t=  13000.8 net      host1      frame dropped on down link edge0->spine";
    "R t=  13040.5 kernel   a          retransmit-probe txn 11";
    "R t=  13040.8 net      host1      frame dropped on down link edge0->spine";
    "R t=  13050.0 net      net        link edge0->spine up";
    "R t=  13080.5 kernel   a          retransmit-probe txn 11";
    "R t=  14000.0 kernel   a          send 1.39985 -> 2.32271";
    "R t=  14000.0 kernel   a          send 1.38386 -> 2.32271";
    "R t=  14000.5 net      host1      frame tail-dropped at full port host1->edge0";
    "R t=  14040.5 kernel   a          retransmit-probe txn 13";
    "R t=  15000.0 net      net        partition host1 <-> host2";
    "R t=  15000.0 kernel   a          send 1.42154 -> 2.32271";
    "R t=  15001.8 net      host2      frame dropped from host1 (down or partitioned)";
    "R t=  15040.5 kernel   a          retransmit-probe txn 14";
    "R t=  15041.8 net      host2      frame dropped from host1 (down or partitioned)";
    "R t=  15080.5 kernel   a          retransmit-probe txn 14";
    "R t=  15081.8 net      host2      frame dropped from host1 (down or partitioned)";
    "R t=  15100.0 net      net        heal host1 <-> host2";
    "R t=  15120.5 kernel   a          retransmit-probe txn 14";
    "R t=  16010.0 kernel   a          send 1.42961 -> 4.42473";
    "R t=  16011.7 net      host5      frame dropped from host1 (down or partitioned)";
    "R t=  16050.5 kernel   a          retransmit-probe txn 15";
    "R t=  16051.7 net      host5      frame dropped from host1 (down or partitioned)";
    "R t=  16090.5 kernel   a          retransmit-probe txn 15";
    "R t=  16091.7 net      host5      frame dropped from host1 (down or partitioned)";
    "R t=  16130.5 kernel   a          retransmit-probe txn 15";
    "M a/kernel/admit 0";
    "M a/kernel/get-pid 1";
    "M a/kernel/get-pid-balanced 1";
    "M a/kernel/group-send 1";
    "M a/kernel/receive 0";
    "M a/kernel/reply 0";
    "M a/kernel/send 13";
    "M a/kernel/shed 0";
    "M b/kernel/admit 0";
    "M b/kernel/forward 2";
    "M b/kernel/forward-group 1";
    "M b/kernel/move-from 1";
    "M b/kernel/move-to 1";
    "M b/kernel/receive 14";
    "M b/kernel/reply 11";
    "M b/kernel/send 1";
    "M b/kernel/shed 1";
    "M c/kernel/admit 0";
    "M c/kernel/receive 4";
    "M c/kernel/reply 4";
    "M c/kernel/send 0";
    "M c/kernel/shed 0";
    "M host1/net/bytes-sent 3019";
    "M host1/net/frames-delivered 17";
    "M host1/net/frames-dropped 3";
    "M host1/net/frames-lost 3";
    "M host1/net/frames-sent 30";
    "M host2/net/bytes-sent 1790";
    "M host2/net/frames-delivered 18";
    "M host2/net/frames-dropped 3";
    "M host2/net/frames-sent 18";
    "M host4/net/bytes-sent 395";
    "M host4/net/frames-delivered 5";
    "M host4/net/frames-dropped 1";
    "M host4/net/frames-sent 4";
    "M host5/net/bytes-sent 80";
    "M host5/net/frames-delivered 1";
    "M host5/net/frames-dropped 3";
    "M host5/net/frames-sent 1";
  ]

let test_every_site_renders_as_before () =
  let hub = Vobs.Hub.create () in
  let stream = Vobs.Hub.stream hub in
  Vobs.Eventlog.set_enabled (Vobs.Hub.events hub) true;
  Vobs.Stream.set_timeline stream true;
  drive (fun domain -> K.set_obs domain hub);
  let timeline =
    List.map
      (fun (l : Vobs.Stream.line) ->
        Printf.sprintf "T %.3f %s %s" l.at l.column l.text)
      (Vobs.Stream.lines stream)
  and recorder =
    List.map
      (fun e -> "R " ^ Fmt.str "%a" Vobs.Eventlog.pp_event e)
      (Vobs.Eventlog.events (Vobs.Hub.events hub))
  and registry =
    List.map
      (fun (k, v) -> Fmt.str "M %a %d" Vobs.Metrics.pp_key k v)
      (Vobs.Metrics.counters (Vobs.Hub.metrics hub))
  in
  Alcotest.(check (list string))
    "timeline, recorder and registry" golden
    (timeline @ recorder @ registry)

(* A flight dump is an export, so it carries the counts the kernel and
   the wire keep in place without anyone flushing them first. *)
let test_flight_dump_carries_kernel_and_wire_counts () =
  let module Scenario = Vworkload.Scenario in
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         ignore
           (Vruntime.Runtime.write_file env "[home]f" (Bytes.of_string "x"));
         ignore (Vruntime.Runtime.query env "[home]f")));
  Scenario.run t;
  let counter ~host ~server ~op dump =
    let open Vobs.Json in
    let is k v c = member k c = Some (String v) in
    match Option.bind (member "metrics" dump) (member "counters") with
    | Some (List cs) ->
        List.find_map
          (fun c ->
            if is "host" host c && is "server" server c && is "op" op c then
              match member "value" c with Some (Int v) -> Some v | _ -> None
            else None)
          cs
    | _ -> None
  in
  let dump = Vobs.Export.flight_to_json Scenario.(t.obs) in
  Alcotest.(check (option int))
    "ws0/kernel/send is the kernel's own count"
    (Some (K.ipc_transaction_count Scenario.(t.domain)))
    (counter ~host:"ws0" ~server:"kernel" ~op:"send" dump);
  let ws0_frames =
    counter
      ~host:(Printf.sprintf "host%d" (Scenario.ws_addr 0))
      ~server:"net" ~op:"frames-sent" dump
  in
  Alcotest.(check bool)
    "ws0's frames-sent is in the dump" true
    (match ws0_frames with Some n -> n > 0 | None -> false)

(* The pump samples on the first Send at or after each interval: the
   echoes go out 22.5 ms apart, so with a 25 ms interval the first,
   third and fifth Send sample. *)
let test_sends_drive_the_pump () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  let domain = K.create_domain ~cost eng net in
  let hub = Vobs.Hub.create () in
  let ts = Vobs.Timeseries.create ~bucket_ms:1.0 () in
  Vobs.Hub.set_timeseries hub (Some ts);
  K.set_obs domain hub;
  K.enable_telemetry domain ~interval_ms:25.0;
  let server =
    K.spawn (K.boot_host domain ~name:"s" 2) (fun self ->
        while true do
          let msg, sender = K.receive self in
          ignore (K.reply self ~to_:sender msg)
        done)
  in
  ignore
    (K.spawn (K.boot_host domain ~name:"c" 1) (fun self ->
         for _ = 1 to 5 do
           ignore (K.send self server "ping");
           Vsim.Proc.delay eng 20.0
         done));
  Vsim.Engine.run eng;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "kernel/ipc-transactions samples"
    [ (0.0, 1.0); (45.0, 3.0); (90.0, 5.0) ]
    (Vobs.Timeseries.points ts "kernel/ipc-transactions")

let suite =
  [
    ( "events",
      [
        Alcotest.test_case "every site renders as before" `Quick
          test_every_site_renders_as_before;
        Alcotest.test_case "sends drive the pump" `Quick
          test_sends_drive_the_pump;
        Alcotest.test_case "flight dump carries kernel and wire counts" `Quick
          test_flight_dump_carries_kernel_and_wire_counts;
      ] );
  ]
