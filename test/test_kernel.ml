(* Tests for the distributed V kernel: pid structure, message
   transactions and their calibrated timings, Forward, MoveTo/MoveFrom,
   SetPid/GetPid, process groups, and crash/restart behaviour. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module E = Vnet.Ethernet
module C = Vnet.Calibration

let check_float = Alcotest.(check (float 1e-6))

(* Messages are strings; payload bytes beyond the 32-byte message equal
   the string length, none of it treated as a copied segment. *)
let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

type rig = {
  eng : Vsim.Engine.t;
  net : string K.packet E.t;
  domain : string K.domain;
}

let make_rig ?(config = C.ethernet_3mbit) () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config eng in
  let domain = K.create_domain ~cost eng net in
  { eng; net; domain }

(* An echo server that replies [prefix ^ msg] forever. *)
let echo_server ?(prefix = "") host =
  K.spawn host ~name:"echo" (fun self ->
      let rec loop () =
        let msg, sender = K.receive self in
        (match K.reply self ~to_:sender (prefix ^ msg) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "echo reply failed: %a" K.pp_error e);
        loop ()
      in
      loop ())

(* --- Pid --- *)

let test_pid_fields () =
  let pid = Pid.make ~logical_host:300 ~local_pid:77 in
  Alcotest.(check int) "logical host" 300 (Pid.logical_host pid);
  Alcotest.(check int) "local pid" 77 (Pid.local_pid pid);
  Alcotest.(check string) "printed" "300.77" (Pid.to_string pid)

let test_pid_invalid () =
  Alcotest.check_raises "zero logical host" (Pid.Invalid_field "logical_host")
    (fun () -> ignore (Pid.make ~logical_host:0 ~local_pid:1));
  Alcotest.check_raises "oversized local pid" (Pid.Invalid_field "local_pid")
    (fun () -> ignore (Pid.make ~logical_host:1 ~local_pid:70000))

let prop_pid_roundtrip =
  QCheck.Test.make ~name:"pid subfields round-trip through 32-bit encoding"
    ~count:500
    QCheck.(pair (int_range 1 65535) (int_range 1 65535))
    (fun (lh, lp) ->
      let pid = Pid.make ~logical_host:lh ~local_pid:lp in
      let pid' = Pid.of_int (Pid.to_int pid) in
      Pid.logical_host pid' = lh && Pid.local_pid pid' = lp)

(* --- message transactions --- *)

let test_local_srr () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let server = echo_server ~prefix:"re:" h in
  let elapsed = ref nan and got = ref "" in
  ignore
    (K.spawn h ~name:"client" (fun self ->
         let t0 = Vsim.Engine.now rig.eng in
         (match K.send self server "" with
         | Ok (reply, _) -> got := reply
         | Error e -> Alcotest.failf "send failed: %a" K.pp_error e);
         elapsed := Vsim.Engine.now rig.eng -. t0));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "reply content" "re:" !got;
  (* Paper (SOSP'83): local message transaction = 0.77 ms. *)
  check_float "local SRR = 0.77 ms" 0.77 !elapsed

let test_remote_srr_32b () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws1" 1 in
  let h2 = K.boot_host rig.domain ~name:"ws2" 2 in
  let server = echo_server h2 in
  let elapsed = ref nan in
  ignore
    (K.spawn h1 ~name:"client" (fun self ->
         let t0 = Vsim.Engine.now rig.eng in
         (match K.send self server "" with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "send failed: %a" K.pp_error e);
         elapsed := Vsim.Engine.now rig.eng -. t0));
  Vsim.Engine.run rig.eng;
  (* Paper §3.1: 2.56 ms for 32-byte messages on 3 Mbit Ethernet. *)
  check_float "remote SRR = 2.56 ms" 2.56 !elapsed;
  (* One timer serves the transaction's retransmissions and probes, and
     the reply cancels it. *)
  Alcotest.(check int) "timers cancelled" 1
    (Vsim.Engine.cancelled_timers rig.eng)

let test_remote_payload_integrity () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws1" 1 in
  let h2 = K.boot_host rig.domain ~name:"ws2" 2 in
  let server = echo_server ~prefix:"srv-" h2 in
  let got = ref "" in
  ignore
    (K.spawn h1 (fun self ->
         match K.send self server "payload" with
         | Ok (reply, _) -> got := reply
         | Error e -> Alcotest.failf "send failed: %a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "payload round-trip" "srv-payload" !got

let test_send_to_nonexistent () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let bogus = Pid.make ~logical_host:77 ~local_pid:42 in
  let result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  ignore (K.spawn h (fun self -> result := K.send self bogus "hi"));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "nonexistent process error"
    (Error K.Nonexistent_process = !result)
    true

let test_send_to_dying_process_nacks () =
  (* Target dies while the request is in flight: sender gets an error
     back from the remote kernel, not a hang. *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws1" 1 in
  let h2 = K.boot_host rig.domain ~name:"ws2" 2 in
  let target =
    K.spawn h2 ~name:"shortlived" (fun self ->
        ignore (K.self_pid self);
        Vsim.Proc.delay rig.eng 0.3)
  in
  let result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  ignore
    (K.spawn h1 (fun self ->
         Vsim.Proc.delay rig.eng 0.2;
         (* dispatched before death, arrives after *)
         result := K.send self target "hi"));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "nacked" (Error K.Nonexistent_process = !result) true

let test_reply_without_receive () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let other = K.spawn h (fun _ -> ()) in
  let result = ref (Ok ()) in
  ignore (K.spawn h (fun self -> result := K.reply self ~to_:other "hi"));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "not awaiting reply" (Error K.Not_awaiting_reply = !result)
    true

(* --- Forward --- *)

let test_forward_local_chain () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let final = echo_server ~prefix:"final-" h in
  let middle =
    K.spawn h ~name:"middle" (fun self ->
        let msg, sender = K.receive self in
        match K.forward self ~from_:sender ~to_:final (msg ^ "+fwd") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "forward failed: %a" K.pp_error e)
  in
  let got = ref "" in
  ignore
    (K.spawn h ~name:"client" (fun self ->
         match K.send self middle "msg" with
         | Ok (reply, _) -> got := reply
         | Error e -> Alcotest.failf "send failed: %a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "reply comes from final server" "final-msg+fwd" !got

let test_forward_remote_reply_is_direct () =
  (* A on host1 sends to B on host2; B forwards to C on host3; C replies
     directly to A. The forwarding host must not see more frames after
     its forward: 3 message-bearing frames total (A->B, B->C, C->A). *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let h3 = K.boot_host rig.domain ~name:"h3" 3 in
  let c = echo_server ~prefix:"c-" h3 in
  let b =
    K.spawn h2 ~name:"b" (fun self ->
        let msg, sender = K.receive self in
        ignore (K.forward self ~from_:sender ~to_:c msg))
  in
  let got = ref "" in
  ignore
    (K.spawn h1 ~name:"a" (fun self ->
         match K.send self b "x" with
         | Ok (reply, replier) ->
             got := reply;
             Alcotest.(check bool) "replier is C, not B" true (replier = c)
         | Error e -> Alcotest.failf "send failed: %a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "reply from C via forward" "c-x" !got;
  Alcotest.(check int) "exactly 3 frames on the wire" 3
    (E.counters rig.net).E.frames_sent

let test_forward_consumes_serving () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let final = echo_server h in
  let result = ref (Ok ()) in
  let middle =
    K.spawn h ~name:"middle" (fun self ->
        let msg, sender = K.receive self in
        ignore (K.forward self ~from_:sender ~to_:final msg);
        (* Second reply attempt to the same sender must fail. *)
        result := K.reply self ~to_:sender "again")
  in
  ignore (K.spawn h (fun self -> ignore (K.send self middle "x")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "serving slot consumed" (Error K.Not_awaiting_reply = !result)
    true

(* --- MoveTo / MoveFrom --- *)

let test_move_from_local () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let got = ref Bytes.empty in
  let server =
    K.spawn h ~name:"reader" (fun self ->
        let _msg, sender = K.receive self in
        (match K.move_from self ~sender ~len:5 with
        | Ok data -> got := data
        | Error e -> Alcotest.failf "move_from failed: %a" K.pp_error e);
        ignore (K.reply self ~to_:sender "done"))
  in
  ignore
    (K.spawn h (fun self ->
         ignore (K.send self ~buffer:(Bytes.of_string "hello world") server "read")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "local move_from" "hello" (Bytes.to_string !got)

let test_move_from_remote () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws1" 1 in
  let h2 = K.boot_host rig.domain ~name:"ws2" 2 in
  let payload = String.init 2000 (fun i -> Char.chr (i mod 256)) in
  let got = ref Bytes.empty in
  let server =
    K.spawn h2 ~name:"reader" (fun self ->
        let _msg, sender = K.receive self in
        (match K.move_from self ~sender ~len:2000 with
        | Ok data -> got := data
        | Error e -> Alcotest.failf "move_from failed: %a" K.pp_error e);
        ignore (K.reply self ~to_:sender "done"))
  in
  ignore
    (K.spawn h1 (fun self ->
         ignore (K.send self ~buffer:(Bytes.of_string payload) server "read")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "remote move_from data intact" payload
    (Bytes.to_string !got)

let test_move_to_remote () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws1" 1 in
  let h2 = K.boot_host rig.domain ~name:"ws2" 2 in
  let payload = String.init 1500 (fun i -> Char.chr ((i * 7) mod 256)) in
  let buffer = Bytes.create 1500 in
  let server =
    K.spawn h2 ~name:"writer" (fun self ->
        let _msg, sender = K.receive self in
        (match K.move_to self ~sender (Bytes.of_string payload) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "move_to failed: %a" K.pp_error e);
        ignore (K.reply self ~to_:sender "done"))
  in
  let finished = ref false in
  ignore
    (K.spawn h1 (fun self ->
         (match K.send self ~buffer server "write" with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "send failed: %a" K.pp_error e);
         finished := true));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "transaction completed" true !finished;
  Alcotest.(check string) "remote move_to wrote the buffer" payload
    (Bytes.to_string buffer)

let test_move_to_64k_timing () =
  (* Paper §3.1: loading a 64 KB program via MoveTo takes 338 ms on
     3 Mbit Ethernet (host-limited). The model should land within a few
     per cent. *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let buffer = Bytes.create 65536 in
  let elapsed = ref nan in
  let server =
    K.spawn h2 ~name:"loader" (fun self ->
        let _msg, sender = K.receive self in
        let t0 = Vsim.Engine.now rig.eng in
        (match K.move_to self ~sender (Bytes.create 65536) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "move_to failed: %a" K.pp_error e);
        elapsed := Vsim.Engine.now rig.eng -. t0;
        ignore (K.reply self ~to_:sender "loaded"))
  in
  ignore (K.spawn h1 (fun self -> ignore (K.send self ~buffer server "load")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool)
    (Fmt.str "64KB MoveTo took %.1f ms (paper: 338)" !elapsed)
    true
    (!elapsed > 325.0 && !elapsed < 355.0)

let test_move_bad_buffer () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let result = ref (Ok Bytes.empty) in
  let server =
    K.spawn h (fun self ->
        let _msg, sender = K.receive self in
        result := K.move_from self ~sender ~len:100;
        ignore (K.reply self ~to_:sender "done"))
  in
  ignore
    (K.spawn h (fun self ->
         ignore (K.send self ~buffer:(Bytes.create 10) server "read")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "overrun rejected" (Error K.Bad_buffer = !result) true

(* --- service naming --- *)

let test_getpid_local () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let server = echo_server h in
  K.set_pid h ~service:Service.Id.time server Service.Local;
  let found = ref None in
  ignore
    (K.spawn h (fun self -> found := K.get_pid self ~service:Service.Id.time Service.Local));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "found local registration" true (!found = Some server)

let test_getpid_broadcast () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server = echo_server h2 in
  K.set_pid h2 ~service:Service.Id.storage server Service.Both;
  let found = ref None in
  ignore
    (K.spawn h1 (fun self ->
         found := K.get_pid self ~service:Service.Id.storage Service.Both));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "found via broadcast" true (!found = Some server)

let test_getpid_local_scope_invisible_remotely () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server = echo_server h2 in
  K.set_pid h2 ~service:Service.Id.storage server Service.Local;
  let found = ref (Some server) in
  ignore
    (K.spawn h1 (fun self ->
         found := K.get_pid self ~service:Service.Id.storage Service.Both));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "local-scope server hidden from the network" true
    (!found = None)

let test_getpid_dead_server_not_returned () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let server = K.spawn h (fun _ -> ()) in
  K.set_pid h ~service:Service.Id.time server Service.Local;
  let found = ref (Some server) in
  ignore
    (K.spawn h (fun self ->
         Vsim.Proc.delay rig.eng 1.0;
         (* server has exited *)
         found := K.get_pid self ~service:Service.Id.time Service.Local));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "stale registration filtered" true (!found = None)

let test_getpid_unknown_times_out () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let _h2 = K.boot_host rig.domain ~name:"other" 2 in
  let found = ref (Some (Pid.make ~logical_host:1 ~local_pid:1)) in
  let finished_at = ref nan in
  ignore
    (K.spawn h1 (fun self ->
         found := K.get_pid self ~service:999 Service.Both;
         finished_at := Vsim.Engine.now rig.eng));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "no answer" true (!found = None);
  Alcotest.(check bool) "gave up after the query timeout" true
    (!finished_at >= C.getpid_timeout_ms)

let test_local_and_remote_registrations_coexist () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let local_server = echo_server h1 in
  let public_server = echo_server h2 in
  (* §4.2: a machine may have a Local registration while a different,
     public server serves the network. *)
  K.set_pid h1 ~service:Service.Id.storage local_server Service.Local;
  K.set_pid h2 ~service:Service.Id.storage public_server Service.Remote;
  let local_found = ref None and h2_found = ref None in
  ignore
    (K.spawn h1 (fun self ->
         local_found := K.get_pid self ~service:Service.Id.storage Service.Both));
  ignore
    (K.spawn h2 (fun self ->
         (* h2's own registration is Remote-scope: not visible to a
            local query, so the broadcast cannot answer from h2 either
            (frames do not loop back); h1 has no remote registration. *)
         h2_found := K.get_pid self ~service:Service.Id.storage Service.Local));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "workstation prefers its local server" true
    (!local_found = Some local_server);
  Alcotest.(check bool) "remote-scope not visible to local query" true
    (!h2_found = None)

(* --- groups --- *)

let test_group_send_first_reply () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let h3 = K.boot_host rig.domain ~name:"h3" 3 in
  let group = K.create_group rig.domain in
  (* Member on h3 answers slowly; member on h2 answers fast. *)
  let fast =
    K.spawn h2 ~name:"fast" (fun self ->
        let _msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender "fast"))
  in
  let slow =
    K.spawn h3 ~name:"slow" (fun self ->
        let _msg, sender = K.receive self in
        Vsim.Proc.delay rig.eng 50.0;
        ignore (K.reply self ~to_:sender "slow"))
  in
  K.join_group h2 ~group fast;
  K.join_group h3 ~group slow;
  let got = ref ("", fast) in
  ignore
    (K.spawn h1 (fun self ->
         match K.send_group self ~group "query" with
         | Ok (msg, replier) -> got := (msg, replier)
         | Error e -> Alcotest.failf "group send failed: %a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "first reply wins" "fast" (fst !got);
  Alcotest.(check bool) "replier pid reported" true (snd !got = fast)

let test_group_send_no_members () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let _h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let group = K.create_group rig.domain in
  let result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  ignore (K.spawn h1 (fun self -> result := K.send_group self ~group "query"));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "no members -> no reply" true (Error K.No_reply = !result)

let test_group_local_member () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let group = K.create_group rig.domain in
  let member =
    K.spawn h1 ~name:"member" (fun self ->
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender ("local:" ^ msg)))
  in
  K.join_group h1 ~group member;
  let got = ref "" in
  ignore
    (K.spawn h1 (fun self ->
         match K.send_group self ~group "q" with
         | Ok (msg, _) -> got := msg
         | Error e -> Alcotest.failf "group send failed: %a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "same-host member reachable" "local:q" !got

(* --- crash / restart --- *)

let test_crash_unblocks_remote_sender () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server =
    K.spawn h2 ~name:"sink" (fun self ->
        let _msg, _sender = K.receive self in
        (* never replies *)
        Vsim.Proc.delay rig.eng 10_000.0)
  in
  let result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  ignore (K.spawn h1 (fun self -> result := K.send self server "hi"));
  Vsim.Engine.schedule ~delay:10.0 rig.eng (fun () ->
      K.crash_host (Option.get (K.host_of_addr rig.domain 2)));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "sender times out after crash" true
    (Error K.Timeout = !result)

let test_crash_kills_blocked_processes () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let died = ref false in
  ignore
    (K.spawn h (fun self ->
         match K.receive self with
         | _ -> ()
         | exception Vsim.Proc.Killed _ -> died := true));
  Vsim.Engine.schedule ~delay:1.0 rig.eng (fun () -> K.crash_host h);
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "blocked process killed" true !died

let test_restart_invalidates_old_pids () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let old_server = echo_server h2 in
  let old_logical = K.host_logical h2 in
  K.crash_host h2;
  K.restart_host h2;
  Alcotest.(check bool) "fresh logical host id" true
    (K.host_logical h2 <> old_logical);
  let new_server = echo_server ~prefix:"new-" h2 in
  let stale = ref None and fresh = ref "" in
  ignore
    (K.spawn h1 (fun self ->
         (match K.send self old_server "x" with
         | Ok _ -> ()
         | Error e -> stale := Some e);
         match K.send self new_server "x" with
         | Ok (reply, _) -> fresh := reply
         | Error _ -> ()));
  Vsim.Engine.run rig.eng;
  (* The stale send goes over the wire; the restarted incarnation knows
     nothing of the old one's pids and nacks Timeout — the message is
     never delivered to the new incarnation's processes. *)
  Alcotest.(check bool) "stale pid times out" true (!stale = Some K.Timeout);
  Alcotest.(check string) "new server reachable" "new-x" !fresh

let test_restart_service_reregistration () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server = echo_server h2 in
  K.set_pid h2 ~service:Service.Id.storage server Service.Both;
  K.crash_host h2;
  K.restart_host h2;
  (* Before re-registration the service is gone; after, it resolves to
     the new pid — the behaviour logical prefix bindings rely on. *)
  let before = ref (Some server) and after = ref None in
  ignore
    (K.spawn h1 (fun self ->
         before := K.get_pid self ~service:Service.Id.storage Service.Both;
         Vsim.Proc.delay rig.eng 100.0;
         after := K.get_pid self ~service:Service.Id.storage Service.Both));
  Vsim.Engine.schedule ~delay:50.0 rig.eng (fun () ->
      let new_server = echo_server h2 in
      K.set_pid h2 ~service:Service.Id.storage new_server Service.Both);
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "unresolvable while down" true (!before = None);
  Alcotest.(check bool) "resolves to restarted server" true (!after <> None)

let test_loss_retransmission () =
  (* Under heavy frame loss, remote transactions still complete (the
     kernel retransmits) and each request is executed exactly once
     (duplicates are suppressed). *)
  let rig = make_rig () in
  E.set_loss_probability rig.net 0.3;
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let executions = ref 0 in
  let server =
    K.spawn h2 ~name:"counting" (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          incr executions;
          ignore (K.reply self ~to_:sender ("ack:" ^ msg));
          loop ()
        in
        loop ())
  in
  let completed = ref 0 and failed = ref 0 in
  let n = 40 in
  for i = 1 to n do
    ignore
      (K.spawn h1 (fun self ->
           Vsim.Proc.delay rig.eng (float_of_int i);
           match K.send self server (Fmt.str "req%d" i) with
           | Ok (reply, _) ->
               Alcotest.(check string) "reply matches request"
                 (Fmt.str "ack:req%d" i) reply;
               incr completed
           | Error _ -> incr failed))
  done;
  Vsim.Engine.run rig.eng;
  Alcotest.(check int) "all transactions completed" n !completed;
  Alcotest.(check int) "no failures" 0 !failed;
  Alcotest.(check int) "each executed exactly once" n !executions

let test_lossless_sends_no_retransmit_executions () =
  (* Sanity: without loss the duplicate-suppression path never fires and
     executions still match sends. *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let executions = ref 0 in
  let server =
    K.spawn h2 (fun self ->
        let rec loop () =
          let _msg, sender = K.receive self in
          incr executions;
          ignore (K.reply self ~to_:sender "ok");
          loop ()
        in
        loop ())
  in
  for i = 1 to 10 do
    ignore
      (K.spawn h1 (fun self ->
           Vsim.Proc.delay rig.eng (float_of_int i);
           ignore (K.send self server "x")))
  done;
  Vsim.Engine.run rig.eng;
  Alcotest.(check int) "one execution per send" 10 !executions

(* A reply whose frame is lost is replayed from the server host's record
   of its sender, however many other transactions that host has served
   since. 4,096 replies come first: a reply cache emptied wholesale at
   that size would lose the victim's reply, take every retransmission
   for a request still in progress, and time the victim out after 30 s
   although the server executed its request. *)
let test_lost_reply_replayed_after_many_replies () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server =
    K.spawn h2 ~name:"echo" (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          if msg = "victim" then begin
            (* Lose exactly this reply's frame. *)
            E.set_loss_probability rig.net 1.0;
            Vsim.Engine.schedule ~delay:2.0 rig.eng (fun () ->
                E.set_loss_probability rig.net 0.0)
          end;
          ignore (K.reply self ~to_:sender msg);
          loop ()
        in
        loop ())
  in
  let echo self =
    match K.send self server "echo" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "echo: %a" K.pp_error e
  in
  let outcome = ref None in
  ignore
    (K.spawn h1 ~name:"client" (fun self ->
         for _ = 1 to 4096 do
           echo self
         done;
         ignore
           (K.spawn h1 ~name:"victim" (fun victim ->
                let t0 = Vsim.Engine.now rig.eng in
                let r = K.send victim server "victim" in
                outcome := Some (r, Vsim.Engine.now rig.eng -. t0)));
         (* One more echo while the victim waits to retransmit. *)
         Vsim.Proc.delay rig.eng 5.0;
         echo self));
  Vsim.Engine.run rig.eng;
  match !outcome with
  | Some (Ok (reply, _), elapsed) ->
      Alcotest.(check string) "the victim's own reply" "victim" reply;
      Alcotest.(check bool)
        (Fmt.str "replayed within 100 ms (took %.1f ms)" elapsed)
        true (elapsed <= 100.0)
  | Some (Error e, elapsed) ->
      Alcotest.failf "victim failed after %.1f ms: %a" elapsed K.pp_error e
  | None -> Alcotest.fail "victim never completed"

(* A copy older than its sender's latest request at a host is dropped,
   V's rule. Every copy of the first request is held past its sender's
   Timeout, and the sender's next request overtakes them: the late
   copies must not run a request whose sender was told it failed. *)
let test_stale_copy_dropped () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let executed = ref [] in
  let server =
    K.spawn h2 (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          executed := msg :: !executed;
          ignore (K.reply self ~to_:sender msg);
          loop ()
        in
        loop ())
  in
  E.set_extra_latency rig.net 2 31_000.0;
  let first = ref None and second = ref None in
  ignore
    (K.spawn h1 (fun self ->
         first := Some (K.send self server "abandoned");
         E.set_extra_latency rig.net 2 0.0;
         second := Some (K.send self server "next")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "first send timed out" true
    (match !first with Some (Error K.Timeout) -> true | _ -> false);
  Alcotest.(check bool) "second send answered" true
    (match !second with Some (Ok ("next", _)) -> true | _ -> false);
  Alcotest.(check (list string)) "only the live request ran" [ "next" ]
    (List.rev !executed)

(* What the kernel keeps for at-most-once delivery is bounded by the
   senders, not by the transactions: four client processes run 10,000
   echoes after a warm-up of 1,000, and the domain's reachable heap
   barely grows (one table entry per delivered transaction would keep
   about 6 words per echo). *)
let test_retention_bounded_by_senders () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server = echo_server h2 in
  let warm = 1_000 and extra = 10_000 and clients = 4 in
  (* Each client runs its warm-up share, sleeps past the measurement
     point, then runs its share of the rest. *)
  let pause_at = 100_000.0 in
  for _ = 1 to clients do
    ignore
      (K.spawn h1 (fun self ->
           let echoes n =
             for _ = 1 to n do
               match K.send self server "ping" with
               | Ok _ -> ()
               | Error e -> Alcotest.failf "echo: %a" K.pp_error e
             done
           in
           echoes (warm / clients);
           Vsim.Proc.delay rig.eng (pause_at -. Vsim.Engine.now rig.eng);
           echoes (extra / clients)))
  done;
  let words () =
    Gc.full_major ();
    Obj.reachable_words (Obj.repr rig.domain)
  in
  Vsim.Engine.run ~until:(pause_at -. 1.0) rig.eng;
  Alcotest.(check int) "warm-up done" warm (K.ipc_transaction_count rig.domain);
  let before = words () in
  Vsim.Engine.run rig.eng;
  Alcotest.(check int) "all echoes done" (warm + extra)
    (K.ipc_transaction_count rig.domain);
  let per_txn = float_of_int (words () - before) /. float_of_int extra in
  Alcotest.(check bool)
    (Fmt.str "%.2f words kept per extra transaction < 1" per_txn)
    true (per_txn < 1.0)

let test_partition_times_out () =
  (* A partition (not a crash) makes the destination unreachable: the
     probe machinery gives up instead of retransmitting forever, at the
     first probe, 500 ms after the request went out. *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server = echo_server h2 in
  E.partition rig.net 1 2;
  let result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  let elapsed = ref nan in
  ignore
    (K.spawn h1 (fun self ->
         let t0 = Vsim.Engine.now rig.eng in
         result := K.send self server "hi";
         elapsed := Vsim.Engine.now rig.eng -. t0));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "partitioned send times out" true
    (Error K.Timeout = !result);
  check_float "Timeout 500 ms after the request went out"
    (C.small_packet_send_cpu +. C.ipc_timeout_ms)
    !elapsed

(* A server that holds a remote request for 1.2 s sees it resent every
   40 ms, each resend counted from the one before and stamped in the
   recorder, while the 500 ms probes renew the timeout without a
   stamp. The reply lands when it did under separate retransmission
   and probe timers. *)
let test_retransmit_schedule () =
  let rig = make_rig () in
  let hub = Vobs.Hub.create () in
  K.set_obs rig.domain hub;
  Vobs.Eventlog.set_enabled (Vobs.Hub.events hub) true;
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server =
    K.spawn h2 (fun self ->
        let msg, sender = K.receive self in
        Vsim.Proc.delay rig.eng 1_200.0;
        ignore (K.reply self ~to_:sender msg))
  in
  let answered = ref nan in
  ignore
    (K.spawn h1 (fun self ->
         (match K.send self server "slow" with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "send: %a" K.pp_error e);
         answered := Vsim.Engine.now rig.eng));
  Vsim.Engine.run rig.eng;
  let stamps =
    List.filter_map
      (fun (e : Vobs.Eventlog.event) ->
        if String.starts_with ~prefix:"retransmit-probe" e.label then Some e.at
        else None)
      (Vobs.Eventlog.events (Vobs.Hub.events hub))
  in
  let rec every_40_ms at =
    if at < !answered then at :: every_40_ms (at +. C.retransmit_interval_ms)
    else []
  in
  Alcotest.(check (list (float 0.0)))
    "a stamp every 40 ms from the request"
    (every_40_ms (C.small_packet_send_cpu +. C.retransmit_interval_ms))
    stamps;
  Alcotest.(check int) "30 resends" 30 (List.length stamps);
  check_float "answered" 1_202.581333 !answered

(* A transaction submitted on one host, forwarded off it, back to it and
   off it again (servers a and c on the sender's host, b and d on two
   others) runs one recovery chain: the re-forward replaces the first
   and keeps the probe count. Two chains would spend the one 60-probe
   budget twice as fast and time the sender out at 15 s, while d still
   serves it. *)
let test_reforward_one_recovery_chain () =
  let rig = make_rig () in
  let hub = Vobs.Hub.create () in
  K.set_obs rig.domain hub;
  Vobs.Eventlog.set_enabled (Vobs.Hub.events hub) true;
  let h = K.boot_host rig.domain ~name:"h" 1 in
  let h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let h3 = K.boot_host rig.domain ~name:"h3" 3 in
  let d =
    K.spawn h3 ~name:"d" (fun self ->
        let msg, sender = K.receive self in
        Vsim.Proc.delay rig.eng 20_000.0;
        ignore (K.reply self ~to_:sender ("d-" ^ msg)))
  in
  let relay host name ~to_ =
    K.spawn host ~name (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          (match K.forward self ~from_:sender ~to_ msg with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s forward: %a" name K.pp_error e);
          loop ()
        in
        loop ())
  in
  let c = relay h "c" ~to_:d in
  let b = relay h2 "b" ~to_:c in
  let a = relay h "a" ~to_:b in
  let outcome = ref None in
  ignore
    (K.spawn h ~name:"sender" (fun self ->
         let r = K.send self a "x" in
         outcome := Some (r, Vsim.Engine.now rig.eng)));
  Vsim.Engine.run rig.eng;
  let probes =
    List.length
      (List.filter
         (fun (e : Vobs.Eventlog.event) ->
           String.starts_with ~prefix:"forward-recovery-probe" e.label)
         (Vobs.Eventlog.events (Vobs.Hub.events hub)))
  in
  match !outcome with
  | Some (Ok (reply, _), at) ->
      Alcotest.(check string) "d's reply" "d-x" reply;
      check_float "answered" 20_005.521 at;
      Alcotest.(check int) "one probe every 500 ms" 40 probes
  | Some (Error e, at) ->
      Alcotest.failf "failed at %.1f ms after %d probes: %a" at probes
        K.pp_error e
  | None -> Alcotest.fail "the sender never completed"

let test_forward_group () =
  (* B forwards A's transaction to a whole group; the first member to
     reply completes it, directly to A. *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let h3 = K.boot_host rig.domain ~name:"h3" 3 in
  let h4 = K.boot_host rig.domain ~name:"h4" 4 in
  let group = K.create_group rig.domain in
  let member host tag delay_ms =
    let pid =
      K.spawn host ~name:tag (fun self ->
          let msg, sender = K.receive self in
          Vsim.Proc.delay rig.eng delay_ms;
          ignore (K.reply self ~to_:sender (tag ^ ":" ^ msg)))
    in
    K.join_group host ~group pid;
    pid
  in
  let fast = member h3 "fast" 0.0 in
  let _slow = member h4 "slow" 30.0 in
  let middle =
    K.spawn h2 ~name:"middle" (fun self ->
        let msg, sender = K.receive self in
        match K.forward_group self ~from_:sender ~group msg with
        | Ok () -> ()
        | Error e -> Alcotest.failf "forward_group: %a" K.pp_error e)
  in
  let got = ref ("", fast) in
  ignore
    (K.spawn h1 ~name:"client" (fun self ->
         match K.send self middle "q" with
         | Ok (reply, replier) -> got := (reply, replier)
         | Error e -> Alcotest.failf "send: %a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "fastest member answered" "fast:q" (fst !got);
  Alcotest.(check bool) "replier is the member, not the forwarder" true
    (Pid.equal (snd !got) fast)

let test_forward_group_local_deadline () =
  (* A local client's Send reaches a local server, which forward_groups
     it to a one-member group on another host; the member never
     replies. The client gets the deadline a remote sender's probes
     reach, Timeout after max_timeout_probes x ipc_timeout_ms, and is
     not left blocked forever. *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let group = K.create_group rig.domain in
  let mute =
    K.spawn h2 ~name:"mute" (fun self ->
        let rec loop () =
          ignore (K.receive self);
          loop ()
        in
        loop ())
  in
  K.join_group h2 ~group mute;
  let forwarder =
    K.spawn h1 ~name:"forwarder" (fun self ->
        let msg, sender = K.receive self in
        match K.forward_group self ~from_:sender ~group msg with
        | Ok () -> ()
        | Error e -> Alcotest.failf "forward_group: %a" K.pp_error e)
  in
  let outcome = ref None in
  ignore
    (K.spawn h1 ~name:"client" (fun self ->
         let r = K.send self forwarder "q" in
         outcome := Some (r, Vsim.Engine.now rig.eng)));
  Vsim.Engine.run ~until:100_000.0 rig.eng;
  match !outcome with
  | Some (Error K.Timeout, at) ->
      check_float "failed at the deadline" 30_000.895 at
  | Some (Ok (reply, _), _) -> Alcotest.failf "a reply from nowhere: %S" reply
  | Some (Error e, at) ->
      Alcotest.failf "failed at %.1f ms: %a" at K.pp_error e
  | None -> Alcotest.fail "the sender is still blocked at 100,000 ms"

(* Liveness/safety property: under random topologies, delays and loss,
   every Send completes exactly once — with a reply or an error, never
   both, never neither — and the kernel delivers at most once. Each
   client sends several unique payloads in a row, so a server host's
   record of it rolls over from one request to the next; some services
   outlast the retransmission interval, so copies of a request still in
   progress arrive. A server executes each payload at most once, and
   every reply echoes its own request. *)
let prop_every_send_completes =
  QCheck.Test.make ~name:"every send completes exactly once" ~count:25
    QCheck.(triple (int_range 1 1000000) (int_range 2 5) (int_range 0 25))
    (fun (seed, n_hosts, loss_pct) ->
      let rig = make_rig () in
      E.set_loss_probability rig.net (float_of_int loss_pct /. 100.0);
      let prng = Vsim.Prng.create ~seed in
      let hosts =
        List.init n_hosts (fun i ->
            K.boot_host rig.domain ~name:(Fmt.str "h%d" i) (i + 1))
      in
      let executed = ref [] in
      let long_service = 2.0 *. C.retransmit_interval_ms in
      let servers =
        List.map
          (fun h ->
            K.spawn h (fun self ->
                let rec loop () =
                  let msg, sender = K.receive self in
                  executed := msg :: !executed;
                  (match Vsim.Prng.int prng 4 with
                  | 0 -> Vsim.Proc.delay rig.eng 3.0
                  | 1 -> Vsim.Proc.delay rig.eng long_service
                  | _ -> ());
                  ignore (K.reply self ~to_:sender msg);
                  loop ()
                in
                loop ()))
          hosts
      in
      let n_clients = 8 and per_client = 3 in
      let completions = ref 0 and wrong_replies = ref 0 in
      for i = 1 to n_clients do
        let client_host = Vsim.Prng.pick prng hosts in
        let targets =
          List.init per_client (fun _ -> Vsim.Prng.pick prng servers)
        in
        ignore
          (K.spawn client_host (fun self ->
               Vsim.Proc.delay rig.eng (float_of_int (i * 3));
               List.iteri
                 (fun j target ->
                   let payload = Fmt.str "c%d-%d" i j in
                   (match K.send self target payload with
                   | Ok (reply, _) ->
                       if reply <> payload then incr wrong_replies
                   | Error _ -> ());
                   incr completions)
                 targets))
      done;
      Vsim.Engine.run rig.eng;
      !completions = n_clients * per_client
      && !wrong_replies = 0
      && List.length (List.sort_uniq compare !executed)
         = List.length !executed)

let test_destroy_process () =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let victim_died = ref false in
  let victim =
    K.spawn h ~name:"victim" (fun self ->
        match K.receive self with
        | _ -> ()
        | exception Vsim.Proc.Killed _ -> victim_died := true)
  in
  let send_result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  ignore
    (K.spawn h (fun self ->
         Vsim.Proc.delay rig.eng 1.0;
         Alcotest.(check bool) "destroy returns true" true
           (K.destroy_process rig.domain victim);
         Alcotest.(check bool) "second destroy is false" false
           (K.destroy_process rig.domain victim);
         (* The pid is now invalid. *)
         send_result := K.send self victim "hello"));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "victim unwound" true !victim_died;
  Alcotest.(check bool) "dead pid rejected" true
    (Error K.Nonexistent_process = !send_result)

let test_destroy_unblocks_client () =
  (* Destroying a server mid-transaction fails its blocked client
     (probe timeout sees the process gone and nacks via retransmit). *)
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server =
    K.spawn h2 ~name:"sink" (fun self ->
        let _ = K.receive self in
        Vsim.Proc.delay rig.eng 10_000.0)
  in
  let result = ref (Ok ("", Pid.make ~logical_host:1 ~local_pid:1)) in
  ignore (K.spawn h1 (fun self -> result := K.send self server "hi"));
  Vsim.Engine.schedule ~delay:5.0 rig.eng (fun () ->
      ignore (K.destroy_process rig.domain server));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "client unblocked with an error" true
    (match !result with Error _ -> true | Ok _ -> false)

(* A sender destroyed while blocked in a remote Send stops
   retransmitting: its transaction's record and timer go with it, so
   no frame leaves its host after the destroy. The server takes the
   request and never replies; the retransmissions it would see are
   duplicates, which it drops without a frame. *)
let test_destroyed_sender_goes_quiet () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"ws" 1 in
  let h2 = K.boot_host rig.domain ~name:"fs" 2 in
  let server =
    K.spawn h2 ~name:"sink" (fun self ->
        let rec loop () =
          ignore (K.receive self);
          loop ()
        in
        loop ())
  in
  let killed = ref false in
  let client =
    K.spawn h1 ~name:"client" (fun self ->
        match K.send self server "hi" with
        | _ -> ()
        | exception Vsim.Proc.Killed _ -> killed := true)
  in
  let frames_at_destroy = ref (-1) in
  Vsim.Engine.schedule ~delay:10.0 rig.eng (fun () ->
      frames_at_destroy := (E.counters rig.net).E.frames_sent;
      ignore (K.destroy_process rig.domain client));
  Vsim.Engine.run rig.eng;
  Alcotest.(check bool) "client unwound" true !killed;
  Alcotest.(check int) "no frame after the destroy" !frames_at_destroy
    (E.counters rig.net).E.frames_sent;
  check_float "nothing left to run after the destroy" 10.0
    (Vsim.Engine.now rig.eng)

(* Two senders on the server's own host, one being served and one
   queued: when the server's record goes, both fail with
   Nonexistent_process at that instant, in the order they sent. Nothing
   else would tell them: a local Send has no retransmission. [serve]
   is the server's body after its first receive. *)
let local_senders_outcome serve ~destroy_at =
  let rig = make_rig () in
  let h = K.boot_host rig.domain ~name:"ws" 1 in
  let server =
    K.spawn h ~name:"server" (fun self ->
        ignore (K.receive self);
        serve rig self)
  in
  let outcomes = ref [] in
  List.iter
    (fun name ->
      ignore
        (K.spawn h ~name (fun self ->
             let r = K.send self server name in
             outcomes := (name, r, Vsim.Engine.now rig.eng) :: !outcomes)))
    [ "first"; "second" ];
  Option.iter
    (fun at ->
      Vsim.Engine.schedule ~delay:at rig.eng (fun () ->
          ignore (K.destroy_process rig.domain server)))
    destroy_at;
  Vsim.Engine.run rig.eng;
  List.rev_map
    (fun (name, r, at) ->
      let r =
        match r with
        | Ok (reply, _) -> "reply " ^ reply
        | Error e -> Fmt.str "%a" K.pp_error e
      in
      Fmt.str "%s: %s at %.3f" name r at)
    !outcomes

let test_destroy_fails_local_senders () =
  Alcotest.(check (list string))
    "both senders fail at the destroy"
    [
      "first: nonexistent process at 10.000";
      "second: nonexistent process at 10.000";
    ]
    (local_senders_outcome ~destroy_at:(Some 10.0) (fun rig self ->
         Vsim.Proc.delay rig.eng 50.0;
         ignore (K.receive self)))

let test_body_end_fails_local_senders () =
  let at = Fmt.str "%.3f" C.local_ipc_leg_cpu in
  Alcotest.(check (list string))
    "both senders fail when the body returns"
    [
      "first: nonexistent process at " ^ at;
      "second: nonexistent process at " ^ at;
    ]
    (local_senders_outcome ~destroy_at:None (fun _ _ -> ()))

(* A group member that ends without replying fails nothing: another
   member may still answer the group Send. *)
let test_group_member_end_fails_nothing () =
  let rig = make_rig () in
  let h1 = K.boot_host rig.domain ~name:"h1" 1 in
  let h2 = K.boot_host rig.domain ~name:"h2" 2 in
  let group = K.create_group rig.domain in
  let quitter =
    K.spawn h1 ~name:"quitter" (fun self -> ignore (K.receive self))
  in
  let answerer =
    K.spawn h2 ~name:"answerer" (fun self ->
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender ("remote:" ^ msg)))
  in
  K.join_group h1 ~group quitter;
  K.join_group h2 ~group answerer;
  let got = ref "" in
  ignore
    (K.spawn h1 (fun self ->
         match K.send_group self ~group "q" with
         | Ok (msg, _) -> got := msg
         | Error e -> got := Fmt.str "%a" K.pp_error e));
  Vsim.Engine.run rig.eng;
  Alcotest.(check string) "the other member's reply" "remote:q" !got

(* A late wake is a no-op: a remote sender destroyed at the very
   instant its reply lands is resumed exactly once, whichever of the
   two runs first at that instant. A second resume of its continuation
   would fail the run. *)
let test_late_wake_is_noop () =
  let rig_with destroy =
    let rig = make_rig () in
    let h1 = K.boot_host rig.domain ~name:"ws" 1 in
    let server = echo_server (K.boot_host rig.domain ~name:"fs" 2) in
    let outcomes = ref [] in
    let record what =
      outcomes := (what, Vsim.Engine.now rig.eng) :: !outcomes
    in
    let client =
      K.spawn h1 ~name:"client" (fun self ->
          match K.send self server "hi" with
          | Ok (reply, _) -> record ("reply " ^ reply)
          | Error e -> record (Fmt.str "%a" K.pp_error e)
          | exception Vsim.Proc.Killed _ -> record "killed")
    in
    destroy rig client;
    Vsim.Engine.run rig.eng;
    List.rev !outcomes
  in
  let landed =
    match rig_with (fun _ _ -> ()) with
    | [ ("reply hi", at) ] -> at
    | _ -> Alcotest.fail "undisturbed echo"
  in
  let destroy_at ~after_reply rig client =
    let destroy () = ignore (K.destroy_process rig.domain client) in
    if after_reply then
      (* Pushed once the reply's arrival is queued for [landed]. *)
      Vsim.Engine.schedule_at rig.eng (landed -. 1e-3) (fun () ->
          Vsim.Engine.schedule_at rig.eng landed destroy)
    else Vsim.Engine.schedule_at rig.eng landed destroy
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "destroy first: killed once" [ ("killed", landed) ]
    (rig_with (destroy_at ~after_reply:false));
  Alcotest.(check (list (pair string (float 0.0))))
    "reply first: the reply, once" [ ("reply hi", landed) ]
    (rig_with (destroy_at ~after_reply:true))

let test_trace_timeline () =
  (* The Figure-1 timeline, exactly as F1 renders it: the transaction's
     five events in order at the calibrated instants, the two frames
     included. *)
  let rig = make_rig () in
  let hub = Vobs.Hub.create () in
  K.set_obs rig.domain hub;
  Vobs.Stream.set_timeline (Vobs.Hub.stream hub) true;
  let h1 = K.boot_host rig.domain ~name:"a" 1 in
  let h2 = K.boot_host rig.domain ~name:"b" 2 in
  let server =
    K.spawn h2 (fun self ->
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender msg))
  in
  ignore (K.spawn h1 (fun self -> ignore (K.send self server "")));
  Vsim.Engine.run rig.eng;
  Alcotest.(check (list string))
    "F1's five lines"
    [
      "  +0.000 ms  ipc        Send 1.6203 -> 2.32271";
      "  +0.510 ms  net        host1 -> host2 (32B payload)";
      "  +1.280 ms  ipc        Receive 2.32271 <- 1.6203";
      "  +1.280 ms  ipc        Reply 2.32271 -> 1.6203";
      "  +1.790 ms  net        host2 -> host1 (32B payload)";
    ]
    (String.split_on_char '\n'
       (Fmt.str "%a" Vobs.Stream.pp_timeline (Vobs.Hub.stream hub))
    |> List.filter (fun l -> l <> ""))

let test_determinism () =
  (* The same scenario run twice produces identical event counts and
     final clocks. *)
  let run_once () =
    let rig = make_rig () in
    let h1 = K.boot_host rig.domain ~name:"h1" 1 in
    let h2 = K.boot_host rig.domain ~name:"h2" 2 in
    let server = echo_server h2 in
    for i = 1 to 5 do
      ignore
        (K.spawn h1 (fun self ->
             Vsim.Proc.delay rig.eng (float_of_int i);
             ignore (K.send self server (String.make i 'x'))))
    done;
    Vsim.Engine.run rig.eng;
    (Vsim.Engine.executed rig.eng, Vsim.Engine.now rig.eng)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* --- the flat transaction table, against Stdlib's Hashtbl --- *)

module It = Vkernel.Int_table

(* For each size the table passes through up to 64 slots, four keys
   whose probes start at its last slot and four at its first, so runs
   wrap past the array's end and removals shift entries back across
   it; then eight keys anywhere. *)
let colliding_keys =
  let candidates = List.init 20_000 Fun.id in
  let at ~slots home =
    List.filteri
      (fun i _ -> i < 4)
      (List.filter (fun k -> It.home_slot ~slots k = home) candidates)
  in
  List.concat_map
    (fun slots -> at ~slots (slots - 1) @ at ~slots 0)
    [ 8; 16; 32; 64 ]
  @ List.init 8 (fun i -> 1_000_003 * (i + 1))
  |> List.sort_uniq Int.compare

type table_op = Replace of int * int | Remove of int | Find of int

let pp_table_op ppf = function
  | Replace (k, v) -> Fmt.pf ppf "replace %d %d" k v
  | Remove k -> Fmt.pf ppf "remove %d" k
  | Find k -> Fmt.pf ppf "find %d" k

(* Each op, then every pool key's binding, the length and the fold's
   bindings (sorted: its order is unspecified) must agree with
   Hashtbl's. *)
let prop_int_table_model =
  let key = QCheck.Gen.oneofl colliding_keys in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> Replace (k, v)) key small_nat);
          (3, map (fun k -> Remove k) key);
          (1, map (fun k -> Find k) key);
        ])
  in
  QCheck.Test.make ~name:"Int_table agrees with Hashtbl" ~count:300
    (QCheck.make
       ~print:(Fmt.to_to_string (Fmt.Dump.list pp_table_op))
       QCheck.Gen.(list_size (int_range 1 300) op))
    (fun ops ->
      let t = It.create ~blank:(-1) and model = Hashtbl.create 8 in
      let bindings fold tbl =
        List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              It.replace t k v;
              Hashtbl.replace model k v
          | Remove k ->
              It.remove t k;
              Hashtbl.remove model k
          | Find _ -> ());
          It.length t = Hashtbl.length model
          && List.for_all
               (fun k ->
                 (match It.find t k with
                 | v -> Some v
                 | exception Not_found -> None)
                 = Hashtbl.find_opt model k)
               colliding_keys
          && bindings It.fold t = bindings Hashtbl.fold model)
        ops)

(* The cases the model must reach, pinned: at 8 slots, three keys whose
   probes start at the last slot fill it and wrap to slots 0 and 1;
   removing the first shifts both back across the end. Then growth
   past 8 slots keeps every binding, and [reset] drops them all. *)
let test_int_table_wrap_and_grow () =
  let t = It.create ~blank:"" in
  let wrapping =
    List.filteri
      (fun i _ -> i < 3)
      (List.filter
         (fun k -> It.home_slot ~slots:8 k = 7)
         (List.init 20_000 Fun.id))
  in
  List.iter (fun k -> It.replace t k (string_of_int k)) wrapping;
  let slot_order = It.fold (fun k _ acc -> k :: acc) t [] |> List.rev in
  (* Slots 0 and 1 come before slot 7 in the fold. *)
  Alcotest.(check (list int))
    "runs wrap" (List.tl wrapping @ [ List.hd wrapping ]) slot_order;
  It.remove t (List.hd wrapping);
  List.iter
    (fun k ->
      Alcotest.(check string) "shifted back" (string_of_int k) (It.find t k))
    (List.tl wrapping);
  Alcotest.check_raises "removed" Not_found (fun () ->
      ignore (It.find t (List.hd wrapping)));
  for k = 100 to 140 do
    It.replace t k (string_of_int k)
  done;
  Alcotest.(check int) "grown" 43 (It.length t);
  for k = 100 to 140 do
    Alcotest.(check string) "kept" (string_of_int k) (It.find t k)
  done;
  It.reset t;
  Alcotest.(check int) "reset" 0 (It.length t);
  Alcotest.check_raises "gone" Not_found (fun () -> ignore (It.find t 100));
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_table.replace: negative key") (fun () ->
      It.replace t (-3) "")

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "kernel.pid",
      [
        Alcotest.test_case "fields" `Quick test_pid_fields;
        Alcotest.test_case "invalid" `Quick test_pid_invalid;
        qcheck prop_pid_roundtrip;
      ] );
    ( "kernel.int_table",
      [
        Alcotest.test_case "wrap, shift back, grow" `Quick
          test_int_table_wrap_and_grow;
        qcheck prop_int_table_model;
      ] );
    ( "kernel.ipc",
      [
        Alcotest.test_case "local SRR timing" `Quick test_local_srr;
        Alcotest.test_case "remote SRR timing (paper 2.56ms)" `Quick
          test_remote_srr_32b;
        Alcotest.test_case "payload integrity" `Quick test_remote_payload_integrity;
        Alcotest.test_case "send to nonexistent" `Quick test_send_to_nonexistent;
        Alcotest.test_case "nack for dying target" `Quick
          test_send_to_dying_process_nacks;
        Alcotest.test_case "reply without receive" `Quick test_reply_without_receive;
      ] );
    ( "kernel.forward",
      [
        Alcotest.test_case "local chain" `Quick test_forward_local_chain;
        Alcotest.test_case "remote reply is direct" `Quick
          test_forward_remote_reply_is_direct;
        Alcotest.test_case "consumes serving slot" `Quick
          test_forward_consumes_serving;
      ] );
    ( "kernel.move",
      [
        Alcotest.test_case "move_from local" `Quick test_move_from_local;
        Alcotest.test_case "move_from remote" `Quick test_move_from_remote;
        Alcotest.test_case "move_to remote" `Quick test_move_to_remote;
        Alcotest.test_case "64KB timing (paper 338ms)" `Quick test_move_to_64k_timing;
        Alcotest.test_case "bad buffer" `Quick test_move_bad_buffer;
      ] );
    ( "kernel.service",
      [
        Alcotest.test_case "getpid local" `Quick test_getpid_local;
        Alcotest.test_case "getpid broadcast" `Quick test_getpid_broadcast;
        Alcotest.test_case "local scope invisible remotely" `Quick
          test_getpid_local_scope_invisible_remotely;
        Alcotest.test_case "dead server filtered" `Quick
          test_getpid_dead_server_not_returned;
        Alcotest.test_case "unknown service times out" `Quick
          test_getpid_unknown_times_out;
        Alcotest.test_case "local+remote coexist" `Quick
          test_local_and_remote_registrations_coexist;
      ] );
    ( "kernel.group",
      [
        Alcotest.test_case "first reply wins" `Quick test_group_send_first_reply;
        Alcotest.test_case "no members" `Quick test_group_send_no_members;
        Alcotest.test_case "local member" `Quick test_group_local_member;
        Alcotest.test_case "forward_group" `Quick test_forward_group;
        Alcotest.test_case "forward_group local deadline" `Quick
          test_forward_group_local_deadline;
      ] );
    ( "kernel.failure",
      [
        Alcotest.test_case "crash unblocks sender" `Quick
          test_crash_unblocks_remote_sender;
        Alcotest.test_case "crash kills blocked" `Quick
          test_crash_kills_blocked_processes;
        Alcotest.test_case "restart invalidates pids" `Quick
          test_restart_invalidates_old_pids;
        Alcotest.test_case "service re-registration" `Quick
          test_restart_service_reregistration;
        Alcotest.test_case "destroy process" `Quick test_destroy_process;
        Alcotest.test_case "destroy unblocks client" `Quick
          test_destroy_unblocks_client;
        Alcotest.test_case "destroyed sender goes quiet" `Quick
          test_destroyed_sender_goes_quiet;
        Alcotest.test_case "destroy fails local senders" `Quick
          test_destroy_fails_local_senders;
        Alcotest.test_case "body end fails local senders" `Quick
          test_body_end_fails_local_senders;
        Alcotest.test_case "group member end fails nothing" `Quick
          test_group_member_end_fails_nothing;
        Alcotest.test_case "late wake is a no-op" `Quick test_late_wake_is_noop;
        Alcotest.test_case "loss + retransmission" `Quick test_loss_retransmission;
        Alcotest.test_case "no spurious duplicates" `Quick
          test_lossless_sends_no_retransmit_executions;
        Alcotest.test_case "lost reply replayed after 4,096 replies" `Quick
          test_lost_reply_replayed_after_many_replies;
        Alcotest.test_case "stale copy dropped" `Quick test_stale_copy_dropped;
        Alcotest.test_case "retention bounded by senders" `Quick
          test_retention_bounded_by_senders;
        Alcotest.test_case "partition times out" `Quick test_partition_times_out;
        Alcotest.test_case "retransmit schedule" `Quick test_retransmit_schedule;
        Alcotest.test_case "re-forward runs one recovery chain" `Quick
          test_reforward_one_recovery_chain;
        Alcotest.test_case "figure-1 timeline" `Quick test_trace_timeline;
        Alcotest.test_case "determinism" `Quick test_determinism;
        qcheck prop_every_send_completes;
      ] );
  ]
