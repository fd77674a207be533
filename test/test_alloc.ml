(* Allocation gates on the IPC data path: minor words per unit of work
   for one engine event, one [Proc.delay], one cross-edge unicast frame
   and one remote echo transaction. The counts repeat exactly for a
   given binary and compiler. Each ceiling sits well below what the data
   path allocated before its dispatch, fabric, fiber suspension and
   transaction bookkeeping were made allocation-lean (engine event 43,
   delay 115, frame 335, echo 1,425 words on OCaml 5.1), and about 40%
   above today's count there (10, 39, 110, 542), as headroom for the
   other supported compiler. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module Engine = Vsim.Engine

let gate what ~ceiling words =
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
  gate "one engine event" ~ceiling:14.0
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
  gate "one Proc.delay" ~ceiling:56.0 !words

(* Rounds of 64 frames, host i to host 64 + i on the next edge switch:
   four hops each. One warm round materializes the links first. *)
let test_cross_edge_frame () =
  let eng = Engine.create () in
  let fan_in = 64 in
  let net = E.create ~config:C.ethernet_10mbit ~topology:(T.switched ~fan_in) eng in
  for a = 0 to (2 * fan_in) - 1 do
    E.attach net a ignore
  done;
  let frames =
    Array.init fan_in (fun i ->
        { E.src = i; dst = E.Unicast (fan_in + i); payload = (); payload_bytes = 64 })
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
  let words = words_per ~units:(n * fan_in) (fun () -> rounds n) in
  Alcotest.(check int) "every frame delivered" ((n + 1) * fan_in)
    (E.counters net).E.frames_delivered;
  gate "one cross-edge frame at fan-in 64" ~ceiling:160.0 words

(* Sequential echo transactions across edge switches on the gigabit
   fabric the benchmark's IPC workload uses. *)
let test_remote_echo () =
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
  let server =
    K.spawn (K.boot_host d ~name:"server" 1) ~name:"echo" (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          ignore (K.reply self ~to_:sender msg);
          loop ()
        in
        loop ())
  in
  let n = 2_000 and words = ref nan in
  ignore
    (K.spawn (K.boot_host d ~name:"client" 100) ~name:"client" (fun self ->
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
  gate "one remote echo" ~ceiling:760.0 !words

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "engine event" `Quick test_engine_event;
        Alcotest.test_case "Proc.delay" `Quick test_proc_delay;
        Alcotest.test_case "cross-edge frame" `Quick test_cross_edge_frame;
        Alcotest.test_case "remote echo" `Quick test_remote_echo;
      ] );
  ]
