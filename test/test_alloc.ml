(* Allocation gates: minor words per unit of work. The counts repeat
   exactly for a given binary and compiler.

   On the IPC data path: one engine event, one [Proc.delay], one event
   of the E12 timer storm, one cross-edge unicast frame, one frame on
   the shared wire, and one echo transaction, remote and local. Each
   ceiling sits well below what the data path allocated before its
   dispatch, fabric, fiber suspension, transaction bookkeeping and
   event queue were made allocation-lean (engine event 43, delay 115,
   frame 335, remote echo 1,425 words on OCaml 5.1), and about 40%
   above the counts there today (4, 4, 4.3, 17.5; the shared wire's
   frame 7.5), as headroom for the other supported compiler; the
   echoes' sit about 35% above theirs (137 remote, 47 local). Every
   push takes its time from the engine's flat time cell, and a delay's
   continuation waits on its queue node, so a delay allocates only the
   runtime's continuation and the clock's new box. Before that, a push
   passed its time boxed (2 words) and a delay built a closure over its
   continuation (4 words): the counts were 10 (the delay), 6.3 (the
   timer storm), 25.5 and 171 (the shared wire's 9.5, the local echo's
   59). The echoes were 193 and 80 before Send and Receive blocked
   through a blocker built once per process. Each of the two blocked
   calls of an echo built
   a register closure, a [Block] effect and the handler's [Some] around
   the closure; a Send now sets its transaction up before it blocks,
   and its blocker stores the continuation in the young pending record
   (2 words). Before that, a blocked call also built a handler closure,
   a once-only cell, a resumer closure, the kernel's token-checking
   closure and its type-erased box (270 and 148), and each reply and
   delivery an [Ok] and a second tuple. The timer storm's event was
   14.1 before the queue kept its nodes in flat arrays. Scheduling an
   event now allocates its action and, when it advances the clock, the
   clock's new box; a push used to add a 5-word node and a 3-word cons
   for each slot it landed in, and a hop boxed its link's two clocks and
   its serialization time. Before that, the counts were 10, 16, 72.5 and
   394 (the shared wire's 19.3).
   A delay wakes through one queue node that takes both of its turns,
   where it took a timer closure, a resume closure and two nodes (39
   words), and a unicast frame is one in-flight record with one action
   for all of its hops, where each hop took two closures (109.5 words).
   The remote echo, two delays and two frames, fell with them from 514;
   it was 532 when it armed a retransmission timer and a probe timer,
   before one timer served both. The IPC and CPU charges around the
   naming share of an uncached prefixed Query, made with preallocated
   messages, are gated the same way (169 words, ceiling about 35%
   above; 251 before the time cell and the parked delay, 281 before
   the blocker, 391 before a blocked call kept its own
   continuation).

   On the naming path: one component of a [Csnh.walk], a
   [Name_cache.find] deep hit and miss, a keyed [Metrics.incr] on an
   existing key, and the naming layer's share of one uncached prefixed
   Query. Before names were scanned in place, cuts scanned without a
   list and keyed recordings looked up through a reused probe, these
   cost 22.9, 116, 140, 6 and 456 words on OCaml 5.1; today 2.75, 14,
   21, 0 and 159.8 (the Query's share was 165.8 while a message record
   had one more field, which every copy of it paid). The ceilings leave
   the same headroom. Sizing a message, a QueryName reply with its
   description record, allocates nothing (ceiling 0).

   Above the kernel, a report with a hub attached and nothing listening
   — a count, a request, a hop's finish, a replica fan-out — allocates
   nothing at all. When these layers formatted their recorder labels
   through a printf-style call, the fan-out alone cost about 19 words
   with the recorder off.

   In the storage layer, a directory's write-behind update allocates
   nothing (ceiling 0), and one file's create then unlink in a directory
   that has its page 31 words (ceiling 43). They cost 68 and 226 words
   on OCaml 5.1 while every disk write kept a fresh zeroed 512-byte page
   and boxed the arm's new time, and every file's inode carried an empty
   directory table beside its block map; the create and unlink cost 65
   while every file's block map was made with its inode, written or
   not. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module Engine = Vsim.Engine

(* Each measured count is printed too, so a verbose run records them. *)
let gate what ~ceiling words =
  Fmt.pr "%s: %.1f minor words (ceiling %.0f)@." what words ceiling;
  Alcotest.(check bool)
    (Fmt.str "%s: %.1f minor words <= %.0f" what words ceiling)
    true (words <= ceiling)

(* Minor words per unit [f ()] allocates doing [units] units of work. *)
let words_per ~units f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int units

(* A chain of events 0.3 ms apart: each lands in its own wheel tick, so
   the ready heap fills and drains once per event. *)
let test_engine_event () =
  let eng = Engine.create () in
  let left = ref 0 in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Engine.schedule_at eng (Engine.now eng +. 0.3) tick
    end
  in
  let chain n =
    left := n;
    Engine.schedule eng tick;
    Engine.run eng
  in
  chain 100;
  let n = 20_000 in
  gate "one engine event" ~ceiling:6.0
    (words_per ~units:n (fun () -> chain n))

let test_proc_delay () =
  let eng = Engine.create () in
  let n = 20_000 and words = ref nan in
  Vsim.Proc.spawn eng (fun () ->
      for _ = 1 to 100 do
        Vsim.Proc.delay eng 1.0
      done;
      words :=
        words_per ~units:n (fun () ->
            for _ = 1 to n do
              Vsim.Proc.delay eng 1.0
            done));
  Engine.run eng;
  gate "one Proc.delay" ~ceiling:6.0 !words

(* The E12 timer storm, shaped as the benchmark's probe runs it: each
   transaction arms a retransmission and a timeout timer and cancels
   both when its reply lands 2.6 ms later. The unit is one engine
   event, executed or cancelled. One warm storm grows the queue
   first. *)
let test_timer_storm () =
  let eng = Engine.create () in
  let storm () =
    for w = 0 to 1_999 do
      let n = ref 0 in
      let rec issue () =
        incr n;
        let retransmit =
          Engine.timer ~delay:C.retransmit_interval_ms eng ignore
        in
        let timeout = Engine.timer ~delay:C.ipc_timeout_ms eng ignore in
        Engine.schedule ~delay:2.6 eng (fun () ->
            Engine.cancel eng retransmit;
            Engine.cancel eng timeout;
            if !n < 25 then issue ())
      in
      Engine.schedule ~delay:(float_of_int w *. 0.013) eng issue
    done;
    Engine.run eng
  in
  storm ();
  let events () = Engine.executed eng + Engine.cancelled_timers eng in
  let before = events () in
  let words = words_per ~units:1 storm in
  gate "one timer-storm event" ~ceiling:6.0
    (words /. float_of_int (events () - before))

(* Rounds of 64 frames, host i to host 64 + i: on the switched fabric,
   to the next edge switch, four hops each. One warm round
   materializes the links first. *)
let frame_words ?topology () =
  let eng = Engine.create () in
  let hosts = 64 in
  let net = E.create ~config:C.ethernet_10mbit ?topology eng in
  for a = 0 to (2 * hosts) - 1 do
    E.attach net a ignore
  done;
  let frames =
    Array.init hosts (fun i ->
        {
          E.src = i;
          dst = E.Unicast (hosts + i);
          payload = ();
          payload_bytes = 64;
        })
  in
  let rounds n =
    for r = 0 to n - 1 do
      Engine.schedule_at eng
        (Engine.now eng +. (float_of_int r *. 20.0))
        (fun () -> Array.iter (E.transmit net) frames)
    done;
    Engine.run eng
  in
  rounds 1;
  let n = 50 in
  let words = words_per ~units:(n * hosts) (fun () -> rounds n) in
  Alcotest.(check int) "every frame delivered" ((n + 1) * hosts)
    (E.counters net).E.frames_delivered;
  words

let test_cross_edge_frame () =
  gate "one cross-edge frame at fan-in 64" ~ceiling:25.0
    (frame_words ~topology:(T.switched ~fan_in:64) ())

let test_shared_wire_frame () =
  gate "one shared-wire frame" ~ceiling:11.0 (frame_words ())

(* Words per echo transaction: sequential echoes across edge switches
   on the gigabit fabric the benchmark's IPC workload uses, or, with
   [~local:true], between two processes of one host. [attach] may hook
   the domain up to a hub first. *)
let echo_words ?(attach = ignore) ?(local = false) () =
  let eng = Engine.create () in
  let net =
    E.create
      ~config:
        {
          C.name = "1Gb switched";
          bandwidth_bps = 1.0e9;
          header_bytes = 64;
          propagation_ms = 0.005;
        }
      ~topology:(T.switched ~fan_in:64) eng
  in
  let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) } in
  let d = K.create_domain ~cost eng net in
  attach d;
  let server_host = K.boot_host d ~name:"server" 1 in
  let server =
    K.spawn server_host ~name:"echo" (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          ignore (K.reply self ~to_:sender msg);
          loop ()
        in
        loop ())
  in
  let n = 2_000 and words = ref nan in
  let client_host =
    if local then server_host else K.boot_host d ~name:"client" 100
  in
  ignore
    (K.spawn client_host ~name:"client" (fun self ->
         let echo () =
           match K.send self server "ping" with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "echo failed: %a" K.pp_error e
         in
         for _ = 1 to 200 do
           echo ()
         done;
         words :=
           words_per ~units:n (fun () ->
               for _ = 1 to n do
                 echo ()
               done)));
  Engine.run eng;
  !words

let test_remote_echo () = gate "one remote echo" ~ceiling:185.0 (echo_words ())

let test_local_echo () =
  gate "one local echo" ~ceiling:64.0 (echo_words ~local:true ())

(* With the stream listening — the pump armed, as on E15's soak lane,
   recorder and timeline off — every kernel and wire site emits its
   event, and no consumer keeps or prints one: an echo allocates
   exactly what it does with no hub at all. *)
let test_listening_stream () =
  let bare = echo_words () in
  let listening =
    echo_words
      ~attach:(fun d ->
        K.set_obs d (Vobs.Hub.create ());
        K.enable_telemetry d ~interval_ms:1e9)
      ()
  in
  Alcotest.(check (float 0.0)) "words per echo, pump armed" bare listening

(* --- the naming layer --- *)

module Csnh = Vnaming.Csnh
module Csname = Vnaming.Csname
module Context = Vnaming.Context
module Name_cache = Vnaming.Name_cache
module Vmsg = Vnaming.Vmsg
module Descriptor = Vnaming.Descriptor
module Metrics = Vobs.Metrics
module Scenario = Vworkload.Scenario
module Fs = Vservices.Fs

(* Walks of an eight-component name that descend through seven contexts
   and stop at the leaf; the lookup answers from preallocated results. *)
let test_walk () =
  let depth = 8 in
  let req =
    Csname.make_req ~context:0
      (String.concat "/" (List.init depth (Fmt.str "dir%d")))
  in
  let descend = Array.init depth (fun i -> Csnh.Descend (i + 1)) in
  let lookup ctx _ = if ctx < depth - 1 then descend.(ctx) else Csnh.Stop in
  let walk () =
    match Csnh.walk ~valid_context:(fun _ -> true) ~lookup req with
    | Csnh.Local (ctx, [ _ ]) when ctx = depth - 1 -> ()
    | _ -> Alcotest.fail "walk must stop at the leaf"
  in
  walk ();
  let n = 10_000 in
  gate "Csnh.walk, per component" ~ceiling:4.0
    (words_per ~units:(n * depth) (fun () ->
         for _ = 1 to n do
           walk ()
         done))

(* A directory binding under a prefix binding, as the cached-zipf
   clients learn them. The deep hit probes the whole name, then finds
   its directory; the miss probes all six cuts of a name under another
   prefix. *)
let test_cache_find () =
  let cache = Name_cache.create ~capacity:256 () in
  let spec =
    Context.spec
      ~server:(Vkernel.Pid.make ~logical_host:1 ~local_pid:1)
      ~context:7
  in
  ignore (Name_cache.learn cache "[fs0]" spec);
  ignore (Name_cache.learn cache "[fs0]usr/src/lib" spec);
  let find name ~hit =
    match Name_cache.find cache name with
    | Some _ when hit -> ()
    | None when not hit -> ()
    | _ -> Alcotest.failf "find %s: wrong answer" name
  in
  let hit = "[fs0]usr/src/lib/naming.ml" in
  let miss = "[fs1]usr/src/lib/naming/csnh.ml" in
  let n = 10_000 in
  find hit ~hit:true;
  gate "Name_cache.find, deep hit" ~ceiling:20.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           find hit ~hit:true
         done));
  find miss ~hit:false;
  gate "Name_cache.find, miss" ~ceiling:30.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           find miss ~hit:false
         done))

let test_metrics_incr () =
  let m = Metrics.create () in
  let host = "ws0" and server = "ws0-prefix-server" in
  Metrics.incr m ~host ~server ~op:"lookup";
  let n = 10_000 in
  gate "keyed Metrics.incr on an existing key" ~ceiling:1.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           Metrics.incr m ~host ~server ~op:"lookup"
         done));
  Alcotest.(check int) "every increment counted" (n + 1)
    (Metrics.counter_value m ~host ~server ~op:"lookup")

(* With a group mapping installed, a keyed recording lands at the leaf,
   its group and the fleet through the cells its leaf entry holds: an
   increment allocates no more than the flat one, and an untraced sample
   no more than the flat sample (a boxed option per call would show). *)
let test_grouped_metrics () =
  let host = "ws0" and server = "ws0-prefix-server" in
  let grouped () =
    let m = Metrics.create () in
    Metrics.set_groups m (Some (fun _ -> Some "edge0"));
    m
  in
  let m = grouped () in
  Metrics.incr m ~host ~server ~op:"lookup";
  let n = 10_000 in
  gate "grouped keyed Metrics.incr on an existing key" ~ceiling:1.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           Metrics.incr m ~host ~server ~op:"lookup"
         done));
  Alcotest.(check (list int))
    "every increment counted at every level" [ n + 1; n + 1; n + 1 ]
    (List.map
       (fun level ->
         List.fold_left (fun acc (_, v) -> acc + v) 0 (Metrics.counters ~level m))
       [ Metrics.Leaf; Metrics.Group; Metrics.Fleet ]);
  let observe_words m =
    Metrics.observe m ~host ~server ~op:"lookup" 1.5;
    words_per ~units:n (fun () ->
        for _ = 1 to n do
          Metrics.observe m ~host ~server ~op:"lookup" 1.5
        done)
  in
  let flat = observe_words (Metrics.create ()) in
  gate
    (Fmt.str "grouped untraced Metrics.observe (flat %.1f)" flat)
    ~ceiling:flat (observe_words (grouped ()))

(* The naming layer's share of one uncached prefixed Query of a
   five-component name: minor words per Query, less those of the same
   CPU charges and IPC (a local send to a stand-in prefix server, a
   forward to a stand-in file server on another host, its reply) made
   with preallocated messages. Both run on the same installation, one
   after the other. *)
let test_query_naming_share () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let fs = Vservices.File_server.fs (Scenario.file_server t 0) in
  let dir =
    List.fold_left
      (fun dir name ->
        match Fs.mkdir fs ~dir ~owner:"alloc" name with
        | Ok ino -> ino
        | Error _ -> Alcotest.fail "mkdir")
      Fs.root_ino [ "a"; "b"; "c"; "d" ]
  in
  ignore (Fs.create_file fs ~dir ~owner:"alloc" "leaf");
  let name = "[fs0]a/b/c/d/leaf" in
  let engine = Scenario.(t.engine) in
  let warm = 50 and n = 500 in
  let query = ref nan and control = ref nan in
  let descriptor = ref None in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _ env ->
         let query_once () =
           match Vruntime.Runtime.query env name with
           | Ok d -> descriptor := Some d
           | Error e -> Alcotest.failf "query: %a" Vio.Verr.pp e
         in
         for _ = 1 to warm do
           query_once ()
         done;
         query :=
           words_per ~units:n (fun () ->
               for _ = 1 to n do
                 query_once ()
               done)));
  Scenario.run t;
  let reply =
    match !descriptor with
    | Some d -> Vmsg.ok ~payload:(Vmsg.P_descriptor d) ()
    | None -> Alcotest.fail "no query answered"
  in
  let fs_host =
    match K.host_of_addr Scenario.(t.domain) (Scenario.fs_addr 0) with
    | Some h -> h
    | None -> Alcotest.fail "file server host"
  in
  let ws_host = (Scenario.workstation t 0).Scenario.ws_host in
  let serve host name handle =
    K.spawn host ~name (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          handle self msg sender;
          loop ()
        in
        loop ())
  in
  let stand_in_fs =
    serve fs_host "stand-in-fs" (fun self _ sender ->
        Vsim.Proc.delay engine C.csname_common_cpu;
        for _ = 1 to 5 do
          Vsim.Proc.delay engine C.component_lookup_cpu
        done;
        Vsim.Proc.delay engine C.descriptor_fabricate_cpu;
        ignore (K.reply self ~to_:sender reply))
  in
  let stand_in_prefix =
    serve ws_host "stand-in-prefix" (fun self msg sender ->
        Vsim.Proc.delay engine C.prefix_parse_cpu;
        ignore (K.forward self ~from_:sender ~to_:stand_in_fs msg))
  in
  let request =
    Vmsg.request ~name:(Csname.make_req name) Vmsg.Op.query_name
  in
  ignore
    (K.spawn ws_host ~name:"control" (fun self ->
         let once () =
           Vsim.Proc.delay engine C.client_stub_cpu;
           match K.send self stand_in_prefix request with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "control: %a" K.pp_error e
         in
         for _ = 1 to warm do
           once ()
         done;
         control :=
           words_per ~units:n (fun () ->
               for _ = 1 to n do
                 once ()
               done)));
  Scenario.run t;
  gate "IPC and charges of one uncached prefixed Query" ~ceiling:228.0 !control;
  gate "naming share of one uncached prefixed Query" ~ceiling:260.0
    (!query -. !control)

(* Sizing a message allocates nothing: a QueryName reply's wire bytes
   are its record's encoded length, measured without encoding it. *)
let test_sizing () =
  let d =
    Descriptor.make ~obj_type:Descriptor.File ~size:1300 ~owner:"system"
      ~attrs:[ ("state", "queued") ] "big.txt"
  in
  let reply = Vmsg.ok ~payload:(Vmsg.P_descriptor d) () in
  let n = 10_000 and total = ref 0 in
  gate "sizing a QueryName reply" ~ceiling:0.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           total := !total + Vmsg.payload_bytes reply
         done));
  Alcotest.(check int) "every sizing counted"
    (n * Bytes.length (Descriptor.to_bytes d))
    !total

(* Reports of the layers above the kernel through one reporter, the
   hub attached, tracing and the recorder off. *)
let test_upper_report () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let r =
    Vnaming.Events.make Scenario.(t.domain) ~host:"ws0" ~server:"alloc" ()
  in
  let req = Csname.make_req "[fs0]a/b" in
  let code = Vmsg.Op.query_name in
  let report () =
    Vnaming.Events.count r "lookup";
    let span = Vnaming.Events.request r ~counted:"QueryName" ~op:"QueryName" req in
    Vnaming.Events.finish r ~counted:false ~span ~index_to:(-1) "OK";
    Vnaming.Events.fan_out r ~trace:0 ~code ~origin:1 ~seq:2 ~members:3
  in
  report ();
  let n = 10_000 in
  Alcotest.(check (float 0.0))
    "words per report, nothing listening" 0.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           report ()
         done));
  Alcotest.(check int) "every fan-out counted" (n + 1)
    (Metrics.counter_value
       (Vobs.Hub.metrics Scenario.(t.obs))
       ~host:"ws0" ~server:"alloc" ~op:"replicate-write")

(* --- the storage layer --- *)

module Disk = Vservices.Disk

(* Each directory update writes its page behind with no bytes. *)
let test_dir_update () =
  let disk = Disk.create (Engine.create ()) in
  Disk.write_page_behind disk 0 Bytes.empty;
  let n = 10_000 in
  gate "a directory's write-behind update" ~ceiling:0.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           Disk.write_page_behind disk 0 Bytes.empty
         done));
  Alcotest.(check int) "every write counted" (n + 1) (Disk.write_count disk)

(* A file's create then unlink in a directory that has its page: the
   inode, its block map and its entry, and the two updates. *)
let test_create_unlink () =
  let eng = Engine.create () in
  let fs = Fs.create (Disk.create eng) eng in
  let cycle () =
    match Fs.create_file fs ~dir:Fs.root_ino ~owner:"alloc" "f" with
    | Ok _ -> (
        match Fs.unlink fs ~dir:Fs.root_ino "f" with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "unlink")
    | Error _ -> Alcotest.fail "create"
  in
  cycle ();
  let n = 10_000 in
  gate "a file's create then unlink" ~ceiling:43.0
    (words_per ~units:n (fun () ->
         for _ = 1 to n do
           cycle ()
         done))

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "engine event" `Quick test_engine_event;
        Alcotest.test_case "Proc.delay" `Quick test_proc_delay;
        Alcotest.test_case "timer storm" `Quick test_timer_storm;
        Alcotest.test_case "cross-edge frame" `Quick test_cross_edge_frame;
        Alcotest.test_case "shared-wire frame" `Quick test_shared_wire_frame;
        Alcotest.test_case "remote echo" `Quick test_remote_echo;
        Alcotest.test_case "local echo" `Quick test_local_echo;
        Alcotest.test_case "listening stream" `Quick test_listening_stream;
        Alcotest.test_case "Csnh.walk" `Quick test_walk;
        Alcotest.test_case "Name_cache.find" `Quick test_cache_find;
        Alcotest.test_case "Metrics.incr" `Quick test_metrics_incr;
        Alcotest.test_case "grouped Metrics" `Quick test_grouped_metrics;
        Alcotest.test_case "Query naming share" `Quick test_query_naming_share;
        Alcotest.test_case "message sizing" `Quick test_sizing;
        Alcotest.test_case "upper-layer report" `Quick test_upper_report;
        Alcotest.test_case "directory update" `Quick test_dir_update;
        Alcotest.test_case "file create and unlink" `Quick test_create_unlink;
      ] );
  ]
