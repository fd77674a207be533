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
  K.register_service_group domain ~service:7 ~group;
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

(* --- the layers above the kernel ---

   Four small installations drive every upper-layer kind at least once:
   requests, lookups, forwards and replies at the CSNH, prefix and
   domain servers; prefixed and unprefixed prefix-server requests
   through static, logical, replica-bound and group bindings; the
   client name cache's miss, learn, hit, eviction and stale binding;
   the resolver's walks, referrals, terminal answers, negative and
   stale answers, a step limit and a delegation cycle; the run-time's
   retries, give-up, failover and rebind; the file server's byte
   counts;
   a replicated write's fan-out, retry, lost member and out-of-sync
   rejection; replica catch-up's replay retry, abort and uncovered
   rejoin; and every fault the injector applies or skips. [upper_golden]
   is what the flight recorder ("R", upper-layer categories), the
   registry ("M", upper-layer keys) and the span store ("S", rendered
   by [Export.pp_timeline]) held for this run before these layers
   reported through one event layer, but for what changed on purpose
   when an operation on a name itself came to be answered by the context
   that binds the name: the prefix server counts and charges the add of
   a prefix binding like its other requests; the Remove of "[alias]d"
   routes by the binding cached for "[alias]", not the stale one for
   "[alias]d"; and the Query of "[dom]d1/d2" resolves "[dom]d1", so
   dom1 answers it with the delegation's record, 0.1 ms later. Later
   still, every payload came to pay its wire bytes: the two QueryName
   replies carry a description record, so those operations take 0.74
   and 0.75 ms longer, and the resolver's four later recorder lines
   come 0.7-0.8 ms later. *)

module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Resolver = Vdomains.Resolver
module Domain_server = Vdomains.Domain_server
module Replica = Vservices.Replica
module File_server = Vservices.File_server
module Ctx = Vnaming.Context

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Vio.Verr.pp e

let installation ?topology ?(file_servers = 2) ?(tracing = true) () =
  let t =
    Scenario.build ?topology ~workstations:1 ~file_servers ~tracing ~seed:18 ()
  in
  Vobs.Eventlog.set_enabled (Vobs.Hub.events Scenario.(t.obs)) true;
  t

let host_at t addr = Option.get (K.host_of_addr Scenario.(t.domain) addr)

let as_client t body =
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         body self env;
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed

(* What the layers above the kernel reported in [t]. *)
let upper_lines name t =
  let hub = Scenario.(t.obs) in
  let recorder =
    List.filter_map
      (fun (e : Vobs.Eventlog.event) ->
        match e.cat with
        | Vobs.Eventlog.Client | Replica | Fault ->
            Some (Fmt.str "%s R %a" name Vobs.Eventlog.pp_event e)
        | Kernel | Net | Balancer | Slo | Admission -> None)
      (Vobs.Eventlog.events (Vobs.Hub.events hub))
  and registry =
    List.filter_map
      (fun ((k : Vobs.Metrics.key), v) ->
        if k.server = "kernel" || k.server = "net" || k.host = "obs" then None
        else Some (Fmt.str "%s M %a %d" name Vobs.Metrics.pp_key k v))
      (Vobs.Metrics.counters (Vobs.Hub.metrics hub))
  and spans =
    Fmt.str "%a" Vobs.Export.pp_timeline (Vobs.Hub.all_spans hub)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> name ^ " S " ^ l)
  in
  recorder @ registry @ spans

(* Files, links, a context implemented by a server group, unprefixed
   names at the prefix server, and the client name cache. *)
let drive_naming () =
  let t = installation () in
  as_client t (fun _self env ->
      let write name s =
        ok name (Runtime.write_file env name (Bytes.of_string s))
      in
      let read name = ignore (Runtime.read_file env name) in
      write "[fs0]a.txt" "hello";
      write "[fs0]empty" "";
      read "[fs0]empty";
      let root = ok "resolve" (Runtime.resolve env "[fs0]") in
      ok "link" (Runtime.link env "[fs1]borrowed" ~target:root);
      read "[fs1]borrowed/a.txt";
      let prefix = (Scenario.workstation t 0).Scenario.ws_prefix in
      let group = K.create_group Scenario.(t.domain) in
      Array.iteri
        (fun i fs ->
          K.join_group (host_at t (Scenario.fs_addr i)) ~group
            (File_server.pid fs))
        Scenario.(t.file_servers);
      ignore
        (Vnaming.Prefix_server.add_binding prefix "grp"
           (Vnaming.Prefix_server.Replicated
              { group; context = Ctx.Well_known.default }));
      ignore (Runtime.query env "[grp]a.txt");
      let here = Runtime.current_context env in
      Runtime.set_current_context env
        (Ctx.spec
           ~server:(Vnaming.Prefix_server.pid prefix)
           ~context:Ctx.Well_known.default);
      ignore (Runtime.query env "fs0");
      ignore (Runtime.query env "fs0/a.txt");
      ignore (Runtime.query env "grp/a.txt");
      Runtime.set_current_context env here;
      Runtime.enable_name_cache env ~capacity:1 true;
      read "[fs0]a.txt";
      read "[fs0]a.txt";
      read "[fs1]borrowed/a.txt";
      Runtime.enable_name_cache env true;
      ok "alias" (Runtime.add_prefix env "alias" (`Static root));
      ok "mkdir" (Runtime.create env ~directory:true "[fs0]d");
      write "[fs0]d/x" "1";
      read "[fs0]d/x";
      ok "rm" (Runtime.remove env "[alias]d/x");
      ok "rmdir" (Runtime.remove env "[alias]d");
      ok "mkdir" (Runtime.create env ~directory:true "[alias]d");
      write "[alias]d/x" "2";
      read "[fs0]d/x";
      Runtime.enable_name_cache env false);
  upper_lines "naming" t

(* The domain tree through the resolver: a cold walk, a warm answer,
   negative answers, a resumed walk, a stale answer while the root is
   down, a step limit and a delegation cycle. *)
let drive_domains () =
  let t = installation ~file_servers:1 () in
  as_client t (fun self env ->
      ok "write"
        (Runtime.write_file env "[fs0]tmp/fed.txt" (Bytes.of_string "hi"));
      let chain = Scenario.domain_chain t ~depth:3 in
      let root = Domain_server.spec chain.(0) () in
      Runtime.set_resolver env
        (Resolver.create ~prefix:"dom" ~ttl_ms:1_000.0
           ~stale_window_ms:60_000.0 ~root ());
      let read name = ignore (Runtime.read_file env name) in
      let name = "[dom]d1/d2/leaf/tmp/fed.txt" in
      read name;
      read name;
      read "[dom]d1/d2/nope";
      read "[dom]d1/d2/nope";
      read "[dom]d1/nope";
      ignore (Runtime.query env "[dom]d1/d2");
      Vsim.Proc.delay (Runtime.engine env) 2_000.0;
      K.crash_host (host_at t (Scenario.dom_addr 0));
      read name;
      ignore
        (Resolver.resolve
           (Resolver.create ~prefix:"dom" ~max_steps:1
              ~root:(Domain_server.spec chain.(1) ())
              ())
           self "[dom]d2/leaf/tmp/fed.txt");
      let evil =
        K.spawn
          (K.boot_host Scenario.(t.domain) ~name:"evil" 60)
          ~name:"evil-domain"
          (fun srv ->
            let rec loop () =
              let msg, sender = K.receive srv in
              let upto =
                match msg.Vnaming.Vmsg.name with
                | Some req -> req.Vnaming.Csname.index
                | None -> 0
              in
              let spec =
                Ctx.spec ~server:(K.self_pid srv)
                  ~context:Ctx.Well_known.default
              in
              ignore
                (K.reply srv ~to_:sender
                   (Vnaming.Vmsg.with_binding
                      (Vnaming.Vmsg.ok ~payload:Vnaming.Vmsg.P_referral ())
                      { Vnaming.Vmsg.upto; spec }));
              loop ()
            in
            loop ())
      in
      ignore
        (Resolver.resolve
           (Resolver.create ~prefix:"dom"
              ~root:(Ctx.spec ~server:evil ~context:Ctx.Well_known.default)
              ())
           self "[dom]a/b"));
  upper_lines "domains" t

(* The resilience loop: retries that succeed, a give-up, a failover to
   a restarted server, and a pinned context rebound by name. *)
let drive_resilience () =
  let t = installation ~file_servers:2 () in
  as_client t (fun _self env ->
      Runtime.set_resilience env ~seed:5 ();
      ignore (ok "chdir" (Runtime.change_context env "[storage]"));
      ok "write" (Runtime.write_file env "f.txt" (Bytes.of_string "v1"));
      ok "write" (Runtime.write_file env "[fs1]g.txt" (Bytes.of_string "v1"));
      let fs0 = host_at t (Scenario.fs_addr 0) in
      K.crash_host fs0;
      K.restart_host fs0;
      ignore (File_server.restart_from (Scenario.file_server t 0) fs0);
      ok "write" (Runtime.write_file env "f.txt" (Bytes.of_string "v2"));
      ok "write" (Runtime.write_file env "[storage]h.txt" (Bytes.of_string "v2"));
      K.crash_host (host_at t (Scenario.fs_addr 1));
      ignore (Runtime.read_file env "[fs1]g.txt"));
  upper_lines "resilience" t

(* A replicated store under partition and heal, a member lost to a
   fan-out, catch-up replays that fail, a rejoin the capped log cannot
   cover, and every fault the injector applies or skips, on a switched
   fabric. *)
let drive_replicas () =
  let t = installation ~topology:(Vnet.Topology.switched ~fan_in:4)
      ~file_servers:3 () in
  let domain = Scenario.(t.domain) in
  let rset = Scenario.install_replicas t ~factor:2 in
  let ws0 = Scenario.ws_addr 0 and fs1 = Scenario.fs_addr 1 in
  as_client t (fun _self env ->
      ok "mkdir" (Runtime.create env ~directory:true "[rstore]top");
      Vnet.Ethernet.partition Scenario.(t.net) ws0 fs1;
      ok "create" (Runtime.create env "[rstore]top/p1");
      Vnet.Ethernet.heal Scenario.(t.net) ws0 fs1;
      ok "create" (Runtime.create env "[rstore]top/p2");
      ignore (Runtime.read_file env "[rstore]top/p2");
      Vnet.Ethernet.set_loss_probability Scenario.(t.net) 1.0;
      ignore (Runtime.create env "[rstore]top/p3");
      Vnet.Ethernet.set_loss_probability Scenario.(t.net) 0.0);
  Replica.sync rset;
  Scenario.run t;
  (* A revived member whose server dies before the replay reaches it. *)
  K.crash_host (host_at t fs1);
  K.restart_host (host_at t fs1);
  (match Replica.revive rset fs1 with
  | Some fresh -> ignore (K.destroy_process domain (File_server.pid fresh))
  | None -> Alcotest.fail "revive");
  Scenario.run t;
  (* A rejoin the capped log no longer covers. *)
  let fs0 = Scenario.fs_addr 0 in
  K.crash_host (host_at t fs0);
  K.restart_host (host_at t fs0);
  let service = Replica.service rset in
  for seq = 1 to 1_100 do
    K.log_group_write domain ~service ~origin:999 ~seq
      (Vnaming.Vmsg.request Vnaming.Vmsg.Op.query_name)
  done;
  ignore (Replica.revive rset fs0);
  Scenario.run t;
  let link = (Vnet.Topology.Edge 0, Vnet.Topology.Spine) in
  let plan =
    Vfault.Plan.of_events ~seed:3
      (Vfault.Plan.crash_restart ~addr:(Scenario.fs_addr 2) ~at:1.0
         ~downtime_ms:5.0
      @ Vfault.Plan.crash_restart ~addr:(Scenario.fs_addr 2) ~at:2.0
          ~downtime_ms:1.0
      @ Vfault.Plan.partition_heal ~a:ws0 ~b:fs1 ~at:10.0 ~duration_ms:5.0
      @ Vfault.Plan.loss_burst ~at:20.0 ~duration_ms:5.0 ~p:0.1
      @ Vfault.Plan.slow_host ~addr:ws0 ~at:30.0 ~duration_ms:5.0 ~ms:2.0
      @ [
          { Vfault.Plan.at = 40.0; action = Vfault.Plan.Link_cut link };
          { Vfault.Plan.at = 41.0; action = Vfault.Plan.Link_cut link };
          { Vfault.Plan.at = 42.0; action = Vfault.Plan.Link_heal link };
          { Vfault.Plan.at = 43.0; action = Vfault.Plan.Link_slow (link, 1.0) };
        ])
  in
  let now = Vsim.Engine.now Scenario.(t.engine) in
  ignore
    (Vfault.Injector.install t
       {
         plan with
         Vfault.Plan.events =
           List.map
             (fun (e : Vfault.Plan.event) ->
               { e with Vfault.Plan.at = now +. e.Vfault.Plan.at })
             plan.Vfault.Plan.events;
       });
  Scenario.run t;
  upper_lines "replicas" t

let upper_golden =
  [
    (* An Open charges the client stub (0.200 ms) once, before its root
       span opens and before its name is routed, as every other named
       operation does. So against the lines before, an Open's root span
       reads 0.200 ms shorter per attempt, its first hop waits 0.200 ms
       less (the prefix server's 0.385 ms, not 0.585 ms), a resolver's
       walk for it starts 0.200 ms later, and an Open the resolver
       answers with a negative pays the charge it skipped. *)
    "naming M fs0/fs0/Create 2";
    "naming M fs0/fs0/MapContext 1";
    "naming M fs0/fs0/Open 11";
    "naming M fs0/fs0/QueryName 3";
    "naming M fs0/fs0/ReadInstance 7";
    "naming M fs0/fs0/ReleaseInstance 11";
    "naming M fs0/fs0/Remove 2";
    "naming M fs0/fs0/WriteInstance 4";
    "naming M fs0/fs0/lookup 22";
    "naming M fs0/fs0/read-bytes 22";
    "naming M fs0/fs0/write-bytes 7";
    "naming M fs1/fs1/AddContextName 1";
    "naming M fs1/fs1/Open 2";
    "naming M fs1/fs1/QueryName 2";
    "naming M fs1/fs1/forward 2";
    "naming M fs1/fs1/lookup 5";
    "naming M ws0/runtime/cache-evict 7";
    "naming M ws0/runtime/cache-hit 5";
    "naming M ws0/runtime/cache-learn 11";
    "naming M ws0/runtime/cache-miss 6";
    "naming M ws0/ws0-prefix-server/AddContextName 1";
    "naming M ws0/ws0-prefix-server/QueryName 3";
    "naming M ws0/ws0-prefix-server/forward 15";
    "naming M ws0/ws0-prefix-server/lookup 4";
    "naming M ws0/ws0-prefix-server/prefix-lookup 13";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.542ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> OK";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.542ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> OK";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.542ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> OK";
    "naming S client:MapContext            ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.408ms -> OK";
    "naming S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     MapContext                   fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.953ms svc 0.240ms -> OK";
    "naming S client:AddContextName        ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.550ms -> OK";
    "naming S   AddContextName               ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     AddContextName               fs1/fs1 pid 145253 ctx 0 name[5..]  wait 1.975ms svc 0.360ms -> OK";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 9.916ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs1/fs1 pid 145253 ctx 0 name[5..14]  wait 1.991ms svc 0.360ms -> forward";
    "naming S       Open                         fs0/fs0 pid 105911 ctx 17 name[14..]  wait 1.991ms svc 0.360ms -> OK";
    "naming S client:QueryName             ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.542ms -> not found";
    "naming S   QueryName                    ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     QueryName                    fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.967ms svc 0.380ms -> OK";
    "naming S     QueryName                    fs1/fs1 pid 145253 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> not found";
    "naming S client:QueryName             ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 1.130ms -> OK";
    "naming S   QueryName                    ws0/ws0-prefix-server pid 396084 ctx 0  wait 0.385ms svc 0.360ms -> OK";
    "naming S client:QueryName             ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 5.122ms -> OK";
    "naming S   QueryName                    ws0/ws0-prefix-server pid 396084 ctx 0 name[0..4]  wait 0.385ms svc 0.360ms -> forward";
    "naming S     QueryName                    fs0/fs0 pid 105911 ctx 0 name[4..]  wait 1.964ms svc 0.380ms -> OK";
    "naming S client:QueryName             ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 4.349ms -> not found";
    "naming S   QueryName                    ws0/ws0-prefix-server pid 396084 ctx 0 name[0..4]  wait 0.385ms svc 0.360ms -> forward";
    "naming S     QueryName                    fs0/fs0 pid 105911 ctx 0 name[4..]  wait 1.964ms svc 0.380ms -> OK";
    "naming S     QueryName                    fs1/fs1 pid 145253 ctx 0 name[4..]  wait 1.964ms svc 0.360ms -> not found";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.542ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> OK";
    "naming S client:Open[cached]          ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 3.607ms -> OK";
    "naming S   Open                         fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> OK";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 9.916ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs1/fs1 pid 145253 ctx 0 name[5..14]  wait 1.991ms svc 0.360ms -> forward";
    "naming S       Open                         fs0/fs0 pid 105911 ctx 17 name[14..]  wait 1.991ms svc 0.360ms -> OK";
    "naming S client:Create                ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.531ms -> OK";
    "naming S   Create                       ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Create                       fs0/fs0 pid 105911 ctx 0 name[5..]  wait 1.956ms svc 0.360ms -> OK";
    "naming S client:Open[cached]          ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 3.721ms -> OK";
    "naming S   Open                         fs0/fs0 pid 105911 ctx 0 name[5..7]  wait 1.961ms svc 0.480ms -> OK";
    "naming S client:Open[cached]          ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 3.601ms -> OK";
    "naming S   Open                         fs0/fs0 pid 105911 ctx 24 name[7..]  wait 1.961ms svc 0.360ms -> OK";
    "naming S client:Remove                ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.662ms -> OK";
    "naming S   Remove                       ws0/ws0-prefix-server pid 396084 ctx 0 name[0..7]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Remove                       fs0/fs0 pid 105911 ctx 17 name[7..9]  wait 1.967ms svc 0.480ms -> OK";
    "naming S client:Remove                ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.536ms -> OK";
    "naming S   Remove                       ws0/ws0-prefix-server pid 396084 ctx 0 name[0..7]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Remove                       fs0/fs0 pid 105911 ctx 17 name[7..]  wait 1.961ms svc 0.360ms -> OK";
    "naming S client:Create[cached]        ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 3.601ms -> OK";
    "naming S   Create                       fs0/fs0 pid 105911 ctx 17 name[7..]  wait 1.961ms svc 0.360ms -> OK";
    "naming S client:Open[cached]          ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 3.727ms -> OK";
    "naming S   Open                         fs0/fs0 pid 105911 ctx 17 name[7..9]  wait 1.967ms svc 0.480ms -> OK";
    "naming S client:Open                  ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 7.656ms -> OK";
    "naming S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "naming S     Open                         fs0/fs0 pid 105911 ctx 0 name[5..7]  wait 1.961ms svc 0.480ms -> OK";
    (* The walk hangs under the operation's root. Before, these read:
       "domains R t=     97.7 client   ws0        resolver: delegation \"[dom]d1/\" -> pid 468087"
       "domains R t=    101.3 client   ws0        resolver: delegation \"[dom]d1/d2/\" -> pid 552199"
    *)
    (* The Open's walk starts 0.2 ms later, after the stub charge.
       Before, these read:
       "domains R t=     97.7 client   ws0        resolver: delegation \"[dom]d1/\" -> pid 468087 trace 2"
       "domains R t=    101.3 client   ws0        resolver: delegation \"[dom]d1/d2/\" -> pid 552199 trace 2"
    *)
    "domains R t=     97.9 client   ws0        resolver: delegation \"[dom]d1/\" -> pid 468087 trace 2";
    "domains R t=    101.5 client   ws0        resolver: delegation \"[dom]d1/d2/\" -> pid 552199 trace 2";
    (* The resolver's authoritative negatives end their operations: the
       three misses no longer go on to ask the prefix server (4.520 ms
       each), so everything after them happens 13.560 ms sooner. Before,
       these read:
       "domains R t=   2653.7 client   ws0        resolver: serving stale \"[dom]d1/d2/leaf/tmp\" (refresh failed: ipc: timeout) trace 8"
       "domains R t=   2667.3 client   ws0        resolver: delegation \"[dom]d2/\" -> pid 552199"
       "domains R t=   2670.6 client   ws0        resolver: delegation \"[dom]\" -> pid 632239"
       "domains R t=   2670.6 client   ws0        resolver: delegation cycle at pid 632239 index 5"
    *)
    (* Each of the three negatives now pays the stub charge, 0.6 ms in
       all, and the stale-served Open's walk starts 0.2 ms later, after
       its own. Before, these read:
       "domains R t=   2641.0 client   ws0        resolver: serving stale \"[dom]d1/d2/leaf/tmp\" (refresh failed: ipc: timeout) trace 8"
       "domains R t=   2654.6 client   ws0        resolver: delegation \"[dom]d2/\" -> pid 552199"
       "domains R t=   2657.9 client   ws0        resolver: delegation \"[dom]\" -> pid 632239"
       "domains R t=   2657.9 client   ws0        resolver: delegation cycle at pid 632239 index 5"
    *)
    "domains R t=   2641.8 client   ws0        resolver: serving stale \"[dom]d1/d2/leaf/tmp\" (refresh failed: ipc: timeout) trace 8";
    "domains R t=   2655.2 client   ws0        resolver: delegation \"[dom]d2/\" -> pid 552199";
    "domains R t=   2658.5 client   ws0        resolver: delegation \"[dom]\" -> pid 632239";
    "domains R t=   2658.5 client   ws0        resolver: delegation cycle at pid 632239 index 5";
    "domains M dom0/dom0/ResolveStep 1";
    "domains M dom0/dom0/lookup 1";
    "domains M dom0/dom0/referral 1";
    "domains M dom1/dom1/QueryName 1";
    "domains M dom1/dom1/ResolveStep 4";
    "domains M dom1/dom1/lookup 4";
    "domains M dom1/dom1/referral 2";
    "domains M dom1/dom1/terminal 1";
    "domains M dom2/dom2/ResolveStep 2";
    "domains M dom2/dom2/lookup 2";
    "domains M dom2/dom2/terminal 1";
    "domains M fs0/fs0/Open 4";
    "domains M fs0/fs0/ReadInstance 3";
    "domains M fs0/fs0/ReleaseInstance 4";
    "domains M fs0/fs0/WriteInstance 1";
    "domains M fs0/fs0/lookup 6";
    "domains M fs0/fs0/read-bytes 6";
    "domains M fs0/fs0/write-bytes 2";
    "domains M ws0/resolver/hit 1";
    "domains M ws0/resolver/loop 2";
    "domains M ws0/resolver/miss 3";
    "domains M ws0/resolver/neg-hit 1";
    "domains M ws0/resolver/neg-learn 2";
    "domains M ws0/resolver/query 9";
    "domains M ws0/resolver/referral 4";
    "domains M ws0/resolver/refresh 1";
    "domains M ws0/resolver/resume 3";
    "domains M ws0/resolver/stale-serve 1";
    "domains M ws0/resolver/walk 9";
    (* No miss falls back to the prefix server any more. Before, the
       three did:
       "domains M ws0/runtime/resolver-fallback 3"
    *)
    "domains M ws0/runtime/resolver-hit 1";
    "domains M ws0/runtime/resolver-stale 1";
    "domains M ws0/runtime/resolver-walk 3";
    "domains M ws0/ws0-prefix-server/forward 1";
    (* Only the first write's Open asks the prefix server. Before, the
       three misses did too:
       "domains M ws0/ws0-prefix-server/prefix-lookup 4"
    *)
    "domains M ws0/ws0-prefix-server/prefix-lookup 1";
    "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 7.678ms -> OK";
    "domains S   Open                         ws0/ws0-prefix-server pid 346245 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "domains S     Open                         fs0/fs0 pid 105911 ctx 0 name[5..9]  wait 1.983ms svc 0.480ms -> OK";
    (* The walk hangs under the operation's root. Before, these read:
       "domains S client:Open[cached]          ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 3.972ms -> OK"
    *)
    "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 14.728ms -> OK";
    "domains S   ResolveStep                  dom0/dom0 pid 413043 ctx 0 name[5..8]  wait 2.012ms svc 0.360ms -> referral";
    "domains S   ResolveStep                  dom1/dom1 pid 468087 ctx 0 name[8..11]  wait 2.012ms svc 0.360ms -> referral";
    "domains S   ResolveStep                  dom2/dom2 pid 552199 ctx 0 name[11..16]  wait 2.012ms svc 0.360ms -> terminal";
    "domains S   Open                         fs0/fs0 pid 105911 ctx 0 name[16..20]  wait 2.012ms svc 0.480ms -> OK";
    "domains S client:Open[cached]          ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 3.652ms -> OK";
    "domains S   Open                         fs0/fs0 pid 105911 ctx 21 name[20..]  wait 2.012ms svc 0.360ms -> OK";
    (* Each miss ends at the resolver's answer: the walk's not-found
       step, or (the repeat miss) the fresh negative entry, which sends
       nothing. Before, each went on to ask the prefix server:
       "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 8.140ms -> not found"
       "domains S   ResolveStep                  dom2/dom2 pid 552199 ctx 0 name[11..]  wait 1.980ms svc 0.360ms -> not found"
       "domains S   Open                         ws0/ws0-prefix-server pid 346245 ctx 0  wait 0.585ms svc 3.550ms -> not found"
       "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 4.520ms -> not found"
       "domains S   Open                         ws0/ws0-prefix-server pid 346245 ctx 0  wait 0.585ms svc 3.550ms -> not found"
       "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 8.132ms -> not found"
       "domains S   ResolveStep                  dom1/dom1 pid 468087 ctx 0 name[8..]  wait 1.972ms svc 0.360ms -> not found"
       "domains S   Open                         ws0/ws0-prefix-server pid 346245 ctx 0  wait 0.585ms svc 3.550ms -> not found"
    *)
    "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 3.620ms -> not found";
    "domains S   ResolveStep                  dom2/dom2 pid 552199 ctx 0 name[11..]  wait 1.980ms svc 0.360ms -> not found";
    "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 0.000ms -> not found";
    "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 3.612ms -> not found";
    "domains S   ResolveStep                  dom1/dom1 pid 468087 ctx 0 name[8..]  wait 1.972ms svc 0.360ms -> not found";
    (* The walk hangs under the operation's root. Before, these read:
       "domains S client:QueryName[cached]     ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 3.487ms -> OK"
    *)
    "domains S client:QueryName             ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 7.828ms -> OK";
    "domains S   ResolveStep                  dom1/dom1 pid 468087 ctx 0 name[8..]  wait 1.961ms svc 0.240ms -> terminal";
    "domains S   QueryName                    dom1/dom1 pid 468087 ctx 0 name[8..]  wait 1.967ms svc 0.360ms -> OK";
    (* The walk hangs under the operation's root. Before, these read:
       "domains S client:Open[cached]          ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 3.852ms -> OK"
    *)
    "domains S client:Open                  ws0/runtime pid 334643 ctx 0  wait 0.000ms svc 504.162ms -> OK";
    "domains S   Open                         fs0/fs0 pid 105911 ctx 21 name[20..]  wait 2.012ms svc 0.360ms -> OK";
    "resilience R t=    137.4 client   ws0        retry attempt 1 after ipc: timeout (wait 17.3ms) trace 4";
    (* Logical bindings re-resolve through GetPid at every use, so the
       failover's rebind through [storage] finds fs0's new pid at once.
       With the GetPid cache the rebind was first forwarded to the
       crashed server's cached pid and failed, which cost one retry and
       one operation (its trace id). Before, these read:
       "resilience R t=    161.8 client   ws0        retry attempt 2 after ipc: timeout (wait 43.8ms) trace 4"
       "resilience R t=    215.3 client   ws0        failover 1 -> pid 470593 trace 4"
       "resilience R t=    285.0 client   ws0        retry attempt 1 after ipc: nonexistent process (wait 15.4ms) trace 8"
       "resilience R t=    312.2 client   ws0        retry attempt 2 after ipc: nonexistent process (wait 27.5ms) trace 8"
       "resilience R t=    351.5 client   ws0        retry attempt 3 after ipc: nonexistent process (wait 59.4ms) trace 8"
       "resilience R t=    422.7 client   ws0        retry attempt 4 after ipc: nonexistent process (wait 138.1ms) trace 8"
       "resilience R t=    572.6 client   ws0        unavailable after 5 attempt(s) trace 8"
    *)
    "resilience R t=    164.4 client   ws0        failover 1 -> pid 470593 trace 4";
    (* A retried Open pays the stub once: the Open before these saves
       one charge and this one four, so each line comes 0.2 ms sooner
       than the one before it did. Before, these read:
       "resilience R t=    236.1 client   ws0        retry attempt 1 after ipc: nonexistent process (wait 21.9ms) trace 7"
       "resilience R t=    271.9 client   ws0        retry attempt 2 after ipc: nonexistent process (wait 30.8ms) trace 7"
       "resilience R t=    316.5 client   ws0        retry attempt 3 after ipc: nonexistent process (wait 55.0ms) trace 7"
       "resilience R t=    385.3 client   ws0        retry attempt 4 after ipc: nonexistent process (wait 118.8ms) trace 7"
       "resilience R t=    517.9 client   ws0        unavailable after 5 attempt(s) trace 7"
    *)
    "resilience R t=    235.9 client   ws0        retry attempt 1 after ipc: nonexistent process (wait 21.9ms) trace 7";
    "resilience R t=    271.5 client   ws0        retry attempt 2 after ipc: nonexistent process (wait 30.8ms) trace 7";
    "resilience R t=    315.9 client   ws0        retry attempt 3 after ipc: nonexistent process (wait 55.0ms) trace 7";
    "resilience R t=    384.5 client   ws0        retry attempt 4 after ipc: nonexistent process (wait 118.8ms) trace 7";
    "resilience R t=    516.9 client   ws0        unavailable after 5 attempt(s) trace 7";
    "resilience M fs0/fs0/MapContext 6";
    "resilience M fs0/fs0/Open 3";
    "resilience M fs0/fs0/ReleaseInstance 3";
    "resilience M fs0/fs0/WriteInstance 3";
    "resilience M fs0/fs0/lookup 3";
    "resilience M fs0/fs0/write-bytes 6";
    "resilience M fs1/fs1/Open 1";
    "resilience M fs1/fs1/ReleaseInstance 1";
    "resilience M fs1/fs1/WriteInstance 1";
    "resilience M fs1/fs1/lookup 1";
    "resilience M fs1/fs1/write-bytes 2";
    "resilience M ws0/runtime/failover 1";
    "resilience M ws0/runtime/rebind 1";
    (* One retry fewer. Before, this read:
       "resilience M ws0/runtime/retry 6"
    *)
    "resilience M ws0/runtime/retry 5";
    "resilience M ws0/runtime/retry-ok 1";
    "resilience M ws0/runtime/unavailable 1";
    (* No forward to the stale pid, so no logical-stale count. Before,
       these read:
       "resilience M ws0/ws0-prefix-server/forward 14"
       "resilience M ws0/ws0-prefix-server/logical-stale 1"
       "resilience M ws0/ws0-prefix-server/prefix-lookup 14"
    *)
    "resilience M ws0/ws0-prefix-server/forward 13";
    "resilience M ws0/ws0-prefix-server/prefix-lookup 13";
    "resilience S client:MapContext            ws0/runtime pid 439796 ctx 0  wait 0.000ms svc 9.484ms -> OK";
    "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     MapContext                   fs0/fs0 pid 105911 ctx 0 name[9..]  wait 1.964ms svc 0.240ms -> OK";
    "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 3.593ms -> OK";
    "resilience S   Open                         fs0/fs0 pid 105911 ctx 17  wait 1.953ms svc 0.360ms -> OK";
    "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 7.542ms -> OK";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "resilience S     Open                         fs1/fs1 pid 145253 ctx 0 name[5..]  wait 1.967ms svc 0.360ms -> OK";
    (* The failover comes one retry sooner. Before, this read:
       "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 84.566ms -> OK"
    *)
    "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 33.292ms -> OK";
    "resilience S   Open                         fs0/fs0 pid 470593 ctx 17  wait 1.953ms svc 0.360ms -> OK";
    (* The rebind forwarded to the stale pid is gone. Before, it read:
       "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 3.985ms -> ipc: nonexistent process"
       "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 3.600ms -> forward"
    *)
    "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 9.484ms -> OK";
    "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     MapContext                   fs0/fs0 pid 470593 ctx 0 name[9..]  wait 1.964ms svc 0.240ms -> OK";
    (* Each use of [storage] broadcasts GetPid (2.015 ms more at the
       prefix server) instead of reading the cache. Before, these read:
       "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 7.802ms -> OK"
       "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.585ms svc 3.600ms -> forward"
    *)
    "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 9.617ms -> OK";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     Open                         fs0/fs0 pid 470593 ctx 0 name[9..]  wait 1.977ms svc 0.360ms -> OK";
    (* Before, this read:
       "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 291.702ms -> unavailable after 5 attempts (last: ipc: nonexistent process)"
    *)
    "resilience S client:Open                  ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 284.894ms -> unavailable after 5 attempts (last: ipc: nonexistent process)";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    "resilience S   Open                         ws0/ws0-prefix-server pid 396084 ctx 0 name[0..5]  wait 0.385ms svc 3.550ms -> forward";
    (* Before, these read:
       "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 7.469ms -> OK"
       "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 3.600ms -> forward"
    *)
    "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 9.484ms -> OK";
    "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     MapContext                   fs0/fs0 pid 470593 ctx 0 name[9..]  wait 1.964ms svc 0.240ms -> OK";
    (* Before, these read:
       "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 7.469ms -> OK"
       "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 3.600ms -> forward"
    *)
    "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 9.484ms -> OK";
    "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     MapContext                   fs0/fs0 pid 470593 ctx 0 name[9..]  wait 1.964ms svc 0.240ms -> OK";
    (* Before, these read:
       "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 7.469ms -> OK"
       "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 3.600ms -> forward"
    *)
    "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 9.484ms -> OK";
    "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     MapContext                   fs0/fs0 pid 470593 ctx 0 name[9..]  wait 1.964ms svc 0.240ms -> OK";
    (* Before, these read:
       "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 7.469ms -> OK"
       "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 3.600ms -> forward"
    *)
    "resilience S client:MapContext            ws0/runtime pid 439796 ctx 17  wait 0.000ms svc 9.484ms -> OK";
    "resilience S   MapContext                   ws0/ws0-prefix-server pid 396084 ctx 0 name[0..9]  wait 0.385ms svc 5.615ms -> forward";
    "resilience S     MapContext                   fs0/fs0 pid 470593 ctx 0 name[9..]  wait 1.964ms svc 0.240ms -> OK";
    "replicas R t=      4.2 replica  ws0        fan-out Create (origin 503545, seq 1) to 2 member(s) trace 1";
    "replicas R t=     19.5 replica  ws0        fan-out Create (origin 503545, seq 2) to 1 member(s) trace 2";
    "replicas R t=     29.6 replica  ws0        fan-out Create (origin 503545, seq 3) to 2 member(s) trace 3";
    "replicas R t=     55.0 replica  ws0        fan-out Create (origin 503545, seq 4) to 2 member(s) trace 5";
    "replicas R t= 120067.3 fault    injector   crash host102";
    "replicas R t= 120068.3 fault    injector   skip (already down): crash host102";
    "replicas R t= 120069.3 fault    injector   restart host102";
    "replicas R t= 120072.3 fault    injector   skip (already up): restart host102";
    "replicas R t= 120076.3 fault    injector   partition host1/host101";
    "replicas R t= 120081.3 fault    injector   heal host1/host101";
    "replicas R t= 120086.3 fault    injector   loss 0.100";
    "replicas R t= 120091.3 fault    injector   loss 0.000";
    "replicas R t= 120096.3 fault    injector   slow host1 +2.0ms";
    "replicas R t= 120101.3 fault    injector   slow host1 +0.0ms";
    "replicas R t= 120106.3 fault    injector   cut link edge0->spine";
    "replicas R t= 120107.3 fault    injector   skip (already cut): cut link edge0->spine";
    "replicas R t= 120108.3 fault    injector   heal link edge0->spine";
    "replicas R t= 120109.3 fault    injector   slow link edge0->spine +1.0ms";
    "replicas M fault/injector/crash 1";
    "replicas M fault/injector/heal 1";
    "replicas M fault/injector/link-cut 1";
    "replicas M fault/injector/link-heal 1";
    "replicas M fault/injector/link-slow 1";
    "replicas M fault/injector/loss 2";
    "replicas M fault/injector/partition 1";
    "replicas M fault/injector/restart 1";
    "replicas M fault/injector/slow 2";
    "replicas M fs0/fs0/Create 7";
    "replicas M fs0/fs0/lookup 12";
    "replicas M fs0/replica/catchup-uncovered 1";
    "replicas M fs1/fs1/Create 6";
    "replicas M fs1/fs1/Open 1";
    "replicas M fs1/fs1/lookup 12";
    "replicas M fs1/replica/catchup-abort 1";
    "replicas M fs1/replica/replay-retry 4";
    "replicas M ws0/ws0-prefix-server/forward 1";
    "replicas M ws0/ws0-prefix-server/prefix-lookup 5";
    "replicas M ws0/ws0-prefix-server/replicate-member-lost 2";
    "replicas M ws0/ws0-prefix-server/replicate-out-of-sync 1";
    "replicas M ws0/ws0-prefix-server/replicate-retry 2";
    "replicas M ws0/ws0-prefix-server/replicate-write 4";
    "replicas S client:Create                ws0/runtime pid 515434 ctx 0  wait 0.000ms svc 15.147ms -> OK";
    "replicas S   Create                       ws0/ws0-prefix-server pid 503545 ctx 0  wait 0.385ms svc 14.377ms -> OK";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..]  wait 2.915ms svc 0.360ms -> OK";
    "replicas S     Create                       fs1/fs1 pid 145253 ctx 0 name[8..]  wait 8.329ms svc 0.360ms -> OK";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..11]  wait 120053.643ms svc 0.360ms -> OK";
    "replicas S     Create                       fs1/fs1 pid 145253 ctx 0 name[8..11]  wait 120053.643ms svc 0.360ms -> OK";
    "replicas S client:Create                ws0/runtime pid 515434 ctx 0  wait 0.000ms svc 9.885ms -> OK";
    "replicas S   Create                       ws0/ws0-prefix-server pid 503545 ctx 0  wait 0.385ms svc 9.115ms -> OK";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..12]  wait 2.947ms svc 0.480ms -> OK";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..12]  wait 120039.426ms svc 0.480ms -> OK";
    "replicas S     Create                       fs1/fs1 pid 145253 ctx 0 name[8..12]  wait 120039.426ms svc 0.480ms -> OK";
    "replicas S client:Create                ws0/runtime pid 515434 ctx 0  wait 0.000ms svc 15.451ms -> OK";
    "replicas S   Create                       ws0/ws0-prefix-server pid 503545 ctx 0  wait 0.385ms svc 14.681ms -> OK";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..12]  wait 2.947ms svc 0.480ms -> OK";
    "replicas S     Create                       fs1/fs1 pid 145253 ctx 0 name[8..12]  wait 8.513ms svc 0.480ms -> retry";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..12]  wait 120030.591ms svc 0.480ms -> OK";
    "replicas S     Create                       fs1/fs1 pid 145253 ctx 0 name[8..12]  wait 120030.591ms svc 0.480ms -> OK";
    "replicas S client:Open                  ws0/runtime pid 515434 ctx 0  wait 0.000ms svc 9.550ms -> not found";
    "replicas S   Open                         ws0/ws0-prefix-server pid 503545 ctx 0 name[0..8]  wait 0.385ms svc 3.600ms -> forward";
    "replicas S     Open                         fs1/fs1 pid 145253 ctx 0 name[8..12]  wait 2.947ms svc 0.480ms -> not found";
    "replicas S client:Create                ws0/runtime pid 515434 ctx 0  wait 0.000ms svc 120006.360ms -> no server";
    "replicas S   Create                       ws0/ws0-prefix-server pid 503545 ctx 0  wait 0.385ms svc 120005.590ms -> no server";
    "replicas S     Create                       fs0/fs0 pid 105911 ctx 0 name[8..12]  wait 120006.440ms svc 0.480ms -> OK";
    "replicas S     Create                       fs1/fs1 pid 145253 ctx 0 name[8..12]  wait 120006.440ms svc 0.480ms -> OK";
  ]

let test_every_upper_site_renders_as_before () =
  Alcotest.(check (list string))
    "recorder, registry and span trees" upper_golden
    (drive_naming () @ drive_domains () @ drive_resilience ()
   @ drive_replicas ())

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
        Alcotest.test_case "every upper-layer site renders as before" `Quick
          test_every_upper_site_renders_as_before;
        Alcotest.test_case "sends drive the pump" `Quick
          test_sends_drive_the_pump;
        Alcotest.test_case "flight dump carries kernel and wire counts" `Quick
          test_flight_dump_carries_kernel_and_wire_counts;
      ] );
  ]
