(* Run the CSNH conformance battery against every server in the
   standard installation, and a domain server whose root binds one name
   to the file server's root: the uniformity claim, checked
   mechanically. The time server is the one server left out: it
   implements no name space, so every naming check would fail against
   it by design.

   The battery runs twice: on the standard installation, where every
   flat context but the file server's is empty, and after one object
   has been put in each of them, so "directory = queries (§5.6)" queries
   a record at every server instead of skipping an empty context. In
   both, the file server's root holds a cross-server pointer to the
   domain server's root, so the file server's listing and queries
   include a pointer's own record. *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Conformance = Vworkload.Conformance
module Csname = Vnaming.Csname
module Reply = Vnaming.Reply
module Vmsg = Vnaming.Vmsg
open Vservices

(* A domain server on a host of its own, its root binding "files" to
   the file server's root context; the file server's root holds
   "shared", a pointer to the domain server's root. *)
let domain_server (t : Scenario.t) =
  let ds =
    Vdomains.Domain_server.start
      (K.boot_host t.Scenario.domain ~name:"dom0" 50)
      ~name:"dom0" ()
  in
  (match
     Vdomains.Domain_server.bind ds "files"
       (File_server.spec (Scenario.file_server t 0)
          ~context:Vnaming.Context.Well_known.default)
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "bind files: %s" (Reply.to_string code));
  (match
     Fs.add_remote_link
       (File_server.fs (Scenario.file_server t 0))
       ~dir:Fs.root_ino "shared"
       (Vdomains.Domain_server.spec ds ())
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "pointer shared: %s" (Reply.to_string code));
  Vdomains.Domain_server.pid ds

let servers_of (t : Scenario.t) ~domain =
  let ws = Scenario.workstation t 0 in
  [
    ("file server", File_server.pid (Scenario.file_server t 0));
    ("prefix server", Vnaming.Prefix_server.pid ws.Scenario.ws_prefix);
    ("terminal server", Terminal_server.pid ws.Scenario.ws_terminal);
    ("VGTS", Vgts.pid ws.Scenario.ws_vgts);
    ("program manager", Program_manager.pid ws.Scenario.ws_programs);
    ("exception server", Exception_server.pid ws.Scenario.ws_exceptions);
    ("printer server", Printer_server.pid t.Scenario.printer);
    ("mail server", Mail_server.pid t.Scenario.mail);
    ("internet server", Internet_server.pid t.Scenario.internet);
    ("domain server", domain);
  ]

(* One object in every flat context: a printer job, a terminal, a
   window, a connection, a mailbox, an exception report and a finished
   program run. *)
let populate (t : Scenario.t) self =
  let ws = Scenario.workstation t 0 in
  let send pid msg =
    match K.send self pid msg with
    | Ok (reply, _) -> reply
    | Error e -> Alcotest.failf "populate: %a" K.pp_error e
  in
  let named ?payload code name =
    Vmsg.request ~name:(Csname.make_req name) ?payload code
  in
  let expect_ok what reply =
    if not (Vmsg.succeeded reply) then
      Alcotest.failf "populate %s: %s" what
        (match Vmsg.reply_code reply with
        | Some code -> Reply.to_string code
        | None -> "not a reply")
  in
  (* Open [name] to write, write [text] and release: one object made. *)
  let write_one pid mode name text =
    let reply =
      send pid
        (named ~payload:(Vmsg.P_open { mode }) Vmsg.Op.open_instance name)
    in
    match reply.Vmsg.payload with
    | Vmsg.P_instance { instance; _ } ->
        expect_ok name
          (send pid
             (Vmsg.request
                ~payload:
                  (Vmsg.P_write
                     { instance; block = 0; data = Bytes.of_string text })
                Vmsg.Op.write_instance));
        expect_ok name
          (send pid
             (Vmsg.request ~payload:(Vmsg.P_instance_arg instance)
                Vmsg.Op.release_instance))
    | _ -> expect_ok name reply
  in
  write_one (Printer_server.pid t.Scenario.printer) Vmsg.Write "report.txt"
    "the report\n";
  expect_ok "console"
    (send
       (Terminal_server.pid ws.Scenario.ws_terminal)
       (named Vmsg.Op.create_object "console"));
  expect_ok "editor"
    (send (Vgts.pid ws.Scenario.ws_vgts) (named Vmsg.Op.create_object "editor"));
  write_one (Internet_server.pid t.Scenario.internet) Vmsg.Write "score:23"
    "hello";
  write_one (Mail_server.pid t.Scenario.mail) Vmsg.Append "cheriton@su-score"
    "From: mann\nhello";
  Exception_server.report self ~culprit:(K.self_pid self) "fault at 4096";
  match
    Program_manager.run_program ws.Scenario.ws_programs self ~program:"hello"
      ~argument:""
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "populate hello: %a" Vio.Verr.pp e

let run_battery ?cost ?(client_ws = 0) ~populated () =
  let t =
    Scenario.build ?cost ~workstations:(client_ws + 1) ~file_servers:1 ()
  in
  (match
     Program_manager.install_image (Scenario.file_server t 0) ~name:"hello"
       ~image:(Bytes.make 64 'p')
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "install hello: %s" (Reply.to_string code));
  let domain = domain_server t in
  let reports = ref [] in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:client_ws ~name:"conformance"
       (fun self _env ->
         if populated then populate t self;
         List.iter
           (fun (label, server) ->
             reports := Conformance.check self ~label server :: !reports)
           (servers_of t ~domain);
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "battery completed" true !completed;
  List.rev !reports

let standard = lazy (run_battery ~populated:false ())
let populated = lazy (run_battery ~populated:true ())

let test_server reports label () =
  let report =
    List.find (fun r -> r.Conformance.label = label) (Lazy.force reports)
  in
  if not (Conformance.passed report) then
    Alcotest.failf "%a" Conformance.pp_report report

(* On a populated context no server may skip the §5.6 identity. *)
let test_populated label () =
  test_server populated label ();
  let report =
    List.find (fun r -> r.Conformance.label = label) (Lazy.force populated)
  in
  List.iter
    (fun c ->
      match c.Conformance.verdict with
      | Conformance.Skip why ->
          Alcotest.failf "%s: %s skipped (%s)" label c.Conformance.check_name
            why
      | Conformance.Pass | Conformance.Fail _ -> ())
    report.Conformance.checks

let labels =
  [
    "file server";
    "prefix server";
    "terminal server";
    "VGTS";
    "program manager";
    "exception server";
    "printer server";
    "mail server";
    "internet server";
    "domain server";
  ]

(* Every message the battery and the instance-I/O scenario put on the
   wire fits the 32-byte message proper, as {!Vmsg.proper_bytes} lays it
   out. The cost model sees the message of every frame; the client runs
   on a second workstation, so its requests to the first workstation's
   own servers, and their replies, cross the wire too. *)
let test_messages_fit () =
  let seen = ref 0 and largest = ref 0 and over = ref [] in
  let cost =
    {
      Vmsg.cost_model with
      K.payload_bytes =
        (fun m ->
          let b = Vmsg.proper_bytes m in
          incr seen;
          largest := max !largest b;
          if b > 32 then over := Fmt.str "%a: %d bytes" Vmsg.pp m b :: !over;
          Vmsg.payload_bytes m);
    }
  in
  ignore (run_battery ~cost ~client_ws:1 ~populated:true ());
  ignore (Test_instance_io.drive ~cost ~client_ws:1 ());
  Fmt.pr "%d messages on the wire, the fullest proper %d bytes@." !seen
    !largest;
  Alcotest.(check bool) "messages seen" true (!seen > 1000);
  Alcotest.(check (list string)) "messages over 32 bytes" [] !over

(* The mail server interprets names with its own syntax, so two checks
   legitimately behave differently; it must still pass the battery
   (NUL names rejected via its own Illegal_name, etc.). *)
let suite =
  [
    ( "conformance",
      List.map
        (fun label ->
          Alcotest.test_case label `Quick (test_server standard label))
        labels );
    (* No longer than the longest suite name (19 characters): alcotest
       pads every suite name to the longest and cuts test names to fit,
       so a longer name here would change how every test name prints. *)
    ( "conformance.filled",
      List.map
        (fun label -> Alcotest.test_case label `Quick (test_populated label))
        labels
      @ [ Alcotest.test_case "messages fit" `Quick test_messages_fit ] );
  ]
