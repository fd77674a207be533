(* Tests for server overload protection: the kernel's bounded-queue
   admission mechanism (priority lanes, shed replies sent on the
   server's behalf, counter conservation) and the Vservices.Admission
   policy (lane classification, caps, wseq bypass, deadline-aware drop,
   retry-after hints), plus the end-to-end path: a protected file
   server sheds, the client surfaces Verr.Busy, and the resilience
   loop waits the server's hint instead of its computed backoff. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module E = Vnet.Ethernet
module C = Vnet.Calibration
module Admission = Vservices.Admission
module File_server = Vservices.File_server
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Resilience = Vio.Resilience
module Verr = Vio.Verr
open Vnaming

(* Messages are strings; payload bytes beyond the 32-byte message equal
   the string length, none of it treated as a copied segment. *)
let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

type rig = { eng : Vsim.Engine.t; domain : string K.domain }

let make_rig () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  let domain = K.create_domain ~cost eng net in
  { eng; domain }

(* A server that takes [service_ms] per request and logs service
   order. *)
let slow_server rig host ~service_ms served =
  K.spawn host ~name:"slow" (fun self ->
      let rec loop () =
        let msg, sender = K.receive self in
        Vsim.Proc.delay rig.eng service_ms;
        served := !served @ [ msg ];
        (match K.reply self ~to_:sender ("ok:" ^ msg) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "reply failed: %a" K.pp_error e);
        loop ()
      in
      loop ())

(* One client per request name, staggered a millisecond apart so the
   arrival order (and therefore each request's observed queue depth) is
   deterministic. Records every reply. *)
let send_staggered rig host server names replies =
  List.iteri
    (fun i name ->
      ignore
        (K.spawn host ~name (fun self ->
             Vsim.Proc.delay rig.eng (float_of_int i);
             match K.send self server name with
             | Ok (reply, _) -> replies := !replies @ [ (name, reply) ]
             | Error e -> Alcotest.failf "%s: send failed: %a" name K.pp_error e)))
    names

(* --- kernel mechanism: the bounded queue --- *)

(* Five requests against a cap-2 queue on a 100ms/request server: the
   first is in service when the rest arrive, two queue, two shed. The
   hook's [depth] argument never exceeds the cap, the shed clients get
   the hook's rejection message as a normal reply (sent by the kernel,
   not the server), and the counters account for all five. *)
let test_queue_bound () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let served = ref [] and replies = ref [] in
  let server = slow_server rig h ~service_ms:100.0 served in
  let max_depth_seen = ref 0 in
  K.set_admission rig.domain server (fun ~now:_ ~depth _msg ->
      max_depth_seen := max !max_depth_seen depth;
      if depth >= 2 then K.Shed "busy" else K.Admit);
  send_staggered rig h server [ "r1"; "r2"; "r3"; "r4"; "r5" ] replies;
  Vsim.Engine.run rig.eng;
  Alcotest.(check (list string))
    "only the in-service and queued requests are served" [ "r1"; "r2"; "r3" ]
    !served;
  List.iter
    (fun (name, reply) ->
      let expected =
        if name = "r4" || name = "r5" then "busy" else "ok:" ^ name
      in
      Alcotest.(check string) (name ^ " reply") expected reply)
    !replies;
  Alcotest.(check (pair int int))
    "admitted + shed = offered" (3, 2)
    (K.admission_counters rig.domain server);
  Alcotest.(check int) "queue depth never exceeds the cap" 2 !max_depth_seen;
  Alcotest.(check int) "queue drains" 0 (K.queue_depth rig.domain server)

(* --- kernel mechanism: priority lanes --- *)

(* While the server works on an occupier, two bulk requests arrive
   before an interactive one; the interactive lane is served first
   regardless, and clearing the hook mid-run drains the bulk lane back
   unharmed. *)
let test_priority_lane_order () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let served = ref [] and replies = ref [] in
  let server = slow_server rig h ~service_ms:100.0 served in
  K.set_admission rig.domain server (fun ~now:_ ~depth:_ msg ->
      if String.length msg >= 4 && String.sub msg 0 4 = "bulk" then K.Admit_bulk
      else K.Admit);
  send_staggered rig h server [ "occ"; "bulkA"; "bulkB"; "int" ] replies;
  (* Clear the hook after the queues are built but before they drain:
     the parked bulk work must transfer back, not vanish. *)
  ignore
    (K.spawn h ~name:"clearer" (fun _self ->
         Vsim.Proc.delay rig.eng 50.0;
         K.clear_admission rig.domain server));
  Vsim.Engine.run rig.eng;
  Alcotest.(check (list string))
    "interactive overtakes earlier bulk"
    [ "occ"; "int"; "bulkA"; "bulkB" ]
    !served;
  Alcotest.(check int) "every request replied" 4 (List.length !replies);
  Alcotest.(check (pair int int))
    "counters survive until cleared, nothing shed" (0, 0)
    (K.admission_counters rig.domain server)

(* --- kernel mechanism: conservation property --- *)

(* Under random offered load, lane mix, arrival spread and cap, every
   offered request is accounted for exactly once:
   admitted + shed = offered, served = admitted, and both reply kinds
   (service reply, kernel shed reply) partition the clients. *)
let prop_conservation =
  QCheck.Test.make ~name:"shed + admitted + completed accounts for every offer"
    ~count:60
    QCheck.(triple (int_range 1 1_000_000) (int_range 1 40) (int_range 0 6))
    (fun (seed, offered, cap) ->
      let rig = make_rig () in
      let prng = Vsim.Prng.create ~seed in
      let h = K.boot_host rig.domain ~name:"ws" 1 in
      let served = ref [] in
      let server = slow_server rig h ~service_ms:5.0 served in
      K.set_admission rig.domain server (fun ~now:_ ~depth msg ->
          if depth >= cap then K.Shed "busy"
          else if String.length msg > 0 && msg.[0] = 'b' then K.Admit_bulk
          else K.Admit);
      let ok_replies = ref 0 and busy_replies = ref 0 in
      for i = 1 to offered do
        let lane = if Vsim.Prng.bool prng then "b" else "i" in
        let name = Fmt.str "%s%d" lane i in
        let jitter = Vsim.Prng.float prng *. 40.0 in
        ignore
          (K.spawn h (fun self ->
               Vsim.Proc.delay rig.eng jitter;
               match K.send self server name with
               | Ok ("busy", _) -> incr busy_replies
               | Ok _ -> incr ok_replies
               | Error e ->
                   QCheck.Test.fail_reportf "%s: send failed: %a" name
                     K.pp_error e))
      done;
      Vsim.Engine.run rig.eng;
      let admitted, shed = K.admission_counters rig.domain server in
      admitted + shed = offered
      && List.length !served = admitted
      && !ok_replies = admitted && !busy_replies = shed
      && K.queue_depth rig.domain server = 0)

(* --- policy: classification --- *)

let test_classify () =
  let lane = Alcotest.testable (Fmt.of_to_string Admission.lane_to_string) ( = ) in
  let check op expected =
    Alcotest.check lane
      (Vmsg.Op.to_string op)
      expected
      (Admission.classify (Vmsg.request op))
  in
  check Vmsg.Op.query_name Admission.Interactive;
  check Vmsg.Op.map_context Admission.Interactive;
  check Vmsg.Op.open_instance Admission.Interactive;
  check Vmsg.Op.read_instance Admission.Interactive;
  check Vmsg.Op.query_instance Admission.Interactive;
  check Vmsg.Op.create_object Admission.Bulk;
  check Vmsg.Op.remove_object Admission.Bulk;
  check Vmsg.Op.write_instance Admission.Bulk;
  check Vmsg.Op.set_instance_size Admission.Bulk;
  check Vmsg.Op.load_file Admission.Bulk

(* --- policy: the decision function --- *)

let busy_hint = function
  | K.Shed m -> (
      match m.Vmsg.retry_after with
      | Some h -> h
      | None -> Alcotest.fail "shed reply carries no retry-after hint")
  | K.Admit -> Alcotest.fail "expected Shed, got Admit"
  | K.Admit_bulk -> Alcotest.fail "expected Shed, got Admit_bulk"

let test_decide_caps_and_hints () =
  let cfg =
    Admission.make ~queue_cap:4 ~bulk_cap:2 ~retry_floor_ms:5.0 ~service_ms:10.0
      ()
  in
  let interactive = Vmsg.request Vmsg.Op.query_name in
  let bulk = Vmsg.request Vmsg.Op.write_instance in
  (* Lane caps: bulk sheds first, interactive holds to the full cap. *)
  (match Admission.decide cfg ~now:0.0 ~depth:3 interactive with
  | K.Admit -> ()
  | _ -> Alcotest.fail "interactive under cap must be admitted");
  (match Admission.decide cfg ~now:0.0 ~depth:1 bulk with
  | K.Admit_bulk -> ()
  | _ -> Alcotest.fail "bulk under cap must ride the bulk lane");
  (match Admission.decide cfg ~now:0.0 ~depth:3 bulk with
  | K.Shed _ -> ()
  | _ -> Alcotest.fail "bulk over bulk_cap must be shed");
  (* The hint is the drain-time estimate, floored. *)
  Alcotest.(check (float 1e-9))
    "hint is the drain estimate" 40.0
    (busy_hint (Admission.decide cfg ~now:0.0 ~depth:4 interactive));
  Alcotest.(check (float 1e-9))
    "hint formula" 70.0
    (Admission.retry_after_ms cfg ~depth:7);
  Alcotest.(check (float 1e-9))
    "empty queue hints the floor" 5.0
    (Admission.retry_after_ms cfg ~depth:0);
  (* Coordinator-stamped replicated writes bypass every cap: shedding
     one at a member would open a permanent sequence gap. *)
  let stamped = Vmsg.with_wseq bulk { Vmsg.origin = 9; seq = 3 } in
  match Admission.decide cfg ~now:0.0 ~depth:100 stamped with
  | K.Admit -> ()
  | _ -> Alcotest.fail "wseq-stamped write must always be admitted"

(* Deadline-aware drop: a request whose queue wait alone already blows
   its stamped deadline is shed below the caps; the same inputs always
   produce the same verdict. *)
let test_decide_deadline_drop_deterministic () =
  let cfg = Admission.make ~queue_cap:8 ~bulk_cap:8 ~service_ms:10.0 () in
  let doomed =
    Vmsg.with_deadline (Vmsg.request Vmsg.Op.query_name) 115.0
    (* now 100, depth 1: wait estimate (1+1)*10 = 20ms > 15ms budget *)
  in
  let viable = Vmsg.with_deadline (Vmsg.request Vmsg.Op.query_name) 200.0 in
  (match Admission.decide cfg ~now:100.0 ~depth:1 doomed with
  | K.Shed _ -> ()
  | _ -> Alcotest.fail "doomed request must be shed below the caps");
  (match Admission.decide cfg ~now:100.0 ~depth:1 viable with
  | K.Admit -> ()
  | _ -> Alcotest.fail "viable deadline must be admitted");
  (* Determinism: decide is pure — the verdict and its hint depend only
     on (config, now, depth, message). *)
  let run () = Admission.decide cfg ~now:100.0 ~depth:1 doomed in
  Alcotest.(check (float 1e-9))
    "same inputs, same hint"
    (busy_hint (run ()))
    (busy_hint (run ()))

(* --- policy: retry-after hint trusted by the resilience loop --- *)

(* A Busy failure carrying a positive hint waits the hint (jittered up
   to +50%, not clamped by max_backoff_ms); a zero hint falls back to
   the computed backoff schedule. *)
let test_next_step_honors_hint () =
  let p = { Resilience.default with Resilience.deadline_ms = 60_000.0 } in
  let prng = Vsim.Prng.create ~seed:3 in
  for _ = 1 to 50 do
    match
      Resilience.next_step p prng ~attempt:1 ~elapsed_ms:0.0
        (Verr.Busy { retry_after_ms = 400.0 })
    with
    | Resilience.Retry_after w ->
        Alcotest.(check bool)
          "wait in [hint, 1.5*hint)" true
          (w >= 400.0 && w < 600.0)
    | Resilience.Give_up -> Alcotest.fail "hinted Busy must retry"
  done;
  (* Above the backoff cap: the server knows its queue, the hint is not
     clamped. *)
  (match
     Resilience.next_step p prng ~attempt:1 ~elapsed_ms:0.0
       (Verr.Busy { retry_after_ms = 3.0 *. p.Resilience.max_backoff_ms })
   with
  | Resilience.Retry_after w ->
      Alcotest.(check bool)
        "hint exceeds max_backoff_ms" true
        (w >= 3.0 *. p.Resilience.max_backoff_ms)
  | Resilience.Give_up -> Alcotest.fail "large hint within deadline must retry");
  (* No hint: the ordinary schedule, capped by attempt-1 backoff. *)
  match
    Resilience.next_step p prng ~attempt:1 ~elapsed_ms:0.0
      (Verr.Busy { retry_after_ms = 0.0 })
  with
  | Resilience.Retry_after w ->
      Alcotest.(check bool)
        "zero hint falls back to backoff" true
        (w >= p.Resilience.base_backoff_ms /. 2.0
        && w < p.Resilience.base_backoff_ms)
  | Resilience.Give_up -> Alcotest.fail "retryable Busy must retry"

(* --- end to end: shed at the file server, hint honored at the client --- *)

(* A zero-capacity admission config on the file server sheds every
   request. Without resilience the client surfaces Verr.Busy with the
   floor hint; with resilience the loop burns its whole retry budget
   waiting the (short) hints — far faster than the computed backoff
   schedule would — and surfaces the bounded Unavailable. Disabling
   admission heals the path. *)
let test_busy_end_to_end () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let fs = Scenario.file_server t 0 in
  let cfg =
    Admission.make ~queue_cap:0 ~bulk_cap:0 ~retry_floor_ms:5.0 ~service_ms:15.0
      ()
  in
  let checked = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         (* Warm up first so installation setup is out of the pipeline. *)
         (match
            Runtime.write_file env "[storage]tmp/adm.txt" (Bytes.of_string "v")
          with
         | Ok () -> ()
         | Error e -> Alcotest.failf "warm-up write failed: %a" Verr.pp e);
         File_server.enable_admission fs t.Scenario.domain ~config:cfg ();
         (* No resilience: the shed surfaces directly, hint attached. *)
         (match Runtime.read_file env "[storage]tmp/adm.txt" with
         | Error (Verr.Busy { retry_after_ms }) ->
             Alcotest.(check (float 1e-9))
               "floor hint at empty queue" 5.0 retry_after_ms
         | Ok _ -> Alcotest.fail "zero-capacity server must shed"
         | Error e -> Alcotest.failf "expected Busy, got %a" Verr.pp e);
         (* With resilience: every retry waits the hint, not the
            backoff schedule. 4 retries x [5, 7.5)ms of hint waiting is
            well under the >= 187.5ms the exponential schedule needs. *)
         Runtime.set_resilience env ~seed:7 ();
         let t0 = Vsim.Engine.now t.Scenario.engine in
         (match Runtime.read_file env "[storage]tmp/adm.txt" with
         | Error (Verr.Unavailable { attempts; _ }) ->
             Alcotest.(check int)
               "whole retry budget burned"
               (Resilience.default.Resilience.max_retries + 1)
               attempts
         | Ok _ -> Alcotest.fail "shedding never stops; must give up"
         | Error e -> Alcotest.failf "expected Unavailable, got %a" Verr.pp e);
         let elapsed = Vsim.Engine.now t.Scenario.engine -. t0 in
         Alcotest.(check bool)
           "retries waited the hints, not the backoff schedule" true
           (elapsed >= 20.0 && elapsed < 150.0);
         let stats = Runtime.resilience_stats env in
         Alcotest.(check int)
           "every attempt after the first was a retry"
           Resilience.default.Resilience.max_retries stats.Runtime.retries;
         (* Disable: the same read succeeds — queued state and counters
            drain back unharmed. *)
         File_server.disable_admission fs t.Scenario.domain;
         (match Runtime.read_file env "[storage]tmp/adm.txt" with
         | Ok data ->
             Alcotest.(check string) "healed after disable" "v"
               (Bytes.to_string data)
         | Error e -> Alcotest.failf "read after disable failed: %a" Verr.pp e);
         checked := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !checked

(* --- shed replies through the service stubs --- *)

let shed_everything () =
  Admission.make ~queue_cap:0 ~bulk_cap:0 ~retry_floor_ms:5.0 ~service_ms:15.0
    ()

(* Run [body] as a client on workstation 0 and check it finished. *)
let run_client (t : Scenario.t) body =
  let checked = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self _env ->
         body self;
         checked := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !checked

(* A shed at the time server reaches the client as Verr.Busy with the
   server's hint, which the resilience policy retries. *)
let test_time_server_busy () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  Admission.install t.Scenario.domain t.Scenario.time_pid (shed_everything ());
  run_client t (fun self ->
      match Vservices.Time_server.get_time self with
      | Error (Verr.Busy { retry_after_ms } as e) ->
          Alcotest.(check (float 1e-9)) "floor hint" 5.0 retry_after_ms;
          Alcotest.(check bool) "retryable" true (Resilience.retryable e)
      | Ok _ -> Alcotest.fail "zero-capacity time server must shed"
      | Error e -> Alcotest.failf "expected Verr.Busy, got %a" Verr.pp e)

(* The baseline name server's stubs surface a shed the same way. *)
let test_name_server_busy () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let ns_host = K.boot_host t.Scenario.domain ~name:"ns" 210 in
  let ns = Vbaseline.Name_server.start ns_host in
  let ns_pid = Vbaseline.Name_server.pid ns in
  Admission.install t.Scenario.domain ns_pid (shed_everything ());
  run_client t (fun self ->
      match Vbaseline.Name_server.lookup self ~ns:ns_pid ~name:"tmp/x" with
      | Error (Verr.Busy _) -> ()
      | Ok _ -> Alcotest.fail "zero-capacity name server must shed"
      | Error e -> Alcotest.failf "expected Verr.Busy, got %a" Verr.pp e)

(* The program manager answers RunProgram with Busy when the storage
   server it loads from sheds the program's QueryName. *)
let test_run_program_busy () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let fs = Scenario.file_server t 0 in
  (match
     Vservices.Program_manager.install_image fs ~name:"hello"
       ~image:(Bytes.make 64 'h')
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "install: %s" (Reply.to_string code));
  let pm =
    Vservices.Program_manager.pid
      (Scenario.workstation t 0).Scenario.ws_programs
  in
  File_server.enable_admission fs t.Scenario.domain
    ~config:(shed_everything ()) ();
  run_client t (fun self ->
      let msg =
        Vmsg.request
          ~payload:(Vmsg.P_run { program = "hello"; argument = "" })
          Vmsg.Op.run_program
      in
      match K.send self pm msg with
      | Ok (reply, _) ->
          Alcotest.(check (option string))
            "RunProgram reply" (Some "busy")
            (Option.map Reply.to_string (Vmsg.reply_code reply))
      | Error e -> Alcotest.failf "RunProgram send failed: %a" K.pp_error e)

let suite =
  [
    ( "admission",
      [
        Alcotest.test_case "kernel queue bound enforced" `Quick test_queue_bound;
        Alcotest.test_case "interactive lane overtakes bulk" `Quick
          test_priority_lane_order;
        QCheck_alcotest.to_alcotest prop_conservation;
        Alcotest.test_case "lane classification" `Quick test_classify;
        Alcotest.test_case "caps, hints and wseq bypass" `Quick
          test_decide_caps_and_hints;
        Alcotest.test_case "deadline-aware drop is deterministic" `Quick
          test_decide_deadline_drop_deterministic;
        Alcotest.test_case "next_step honors the retry-after hint" `Quick
          test_next_step_honors_hint;
        Alcotest.test_case "busy propagates end to end" `Quick
          test_busy_end_to_end;
        Alcotest.test_case "time server shed is Busy" `Quick
          test_time_server_busy;
        Alcotest.test_case "name server shed is Busy" `Quick
          test_name_server_busy;
        Alcotest.test_case "RunProgram answers Busy" `Quick
          test_run_program_busy;
      ] );
  ]
