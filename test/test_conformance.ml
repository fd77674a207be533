(* Run the CSNH conformance battery against every server in the
   standard installation: the uniformity claim, checked mechanically.
   The time server is the one server left out: it implements no name
   space, so every naming check would fail against it by design. *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Conformance = Vworkload.Conformance
module File_server = Vservices.File_server
module Prefix_server = Vnaming.Prefix_server

let servers_of (t : Scenario.t) =
  let ws = Scenario.workstation t 0 in
  [
    ("file server", File_server.pid (Scenario.file_server t 0));
    ("prefix server", Prefix_server.pid ws.Scenario.ws_prefix);
    ("terminal server", Vservices.Terminal_server.pid ws.Scenario.ws_terminal);
    ("VGTS", Vservices.Vgts.pid ws.Scenario.ws_vgts);
    ("program manager", Vservices.Program_manager.pid ws.Scenario.ws_programs);
    ( "exception server",
      Vservices.Exception_server.pid ws.Scenario.ws_exceptions );
    ("printer server", Vservices.Printer_server.pid t.Scenario.printer);
    ("mail server", Vservices.Mail_server.pid t.Scenario.mail);
    ("internet server", Vservices.Internet_server.pid t.Scenario.internet);
  ]

let run_battery () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let reports = ref [] in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"conformance" (fun self _env ->
         List.iter
           (fun (label, server) ->
             reports := Conformance.check self ~label server :: !reports)
           (servers_of t);
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "battery completed" true !completed;
  List.rev !reports

let reports = lazy (run_battery ())

let test_server label () =
  let report =
    List.find (fun r -> r.Conformance.label = label) (Lazy.force reports)
  in
  if not (Conformance.passed report) then
    Alcotest.failf "%a" Conformance.pp_report report

(* The mail server interprets names with its own syntax, so two checks
   legitimately behave differently; it must still pass the battery
   (NUL names rejected via its own Illegal_name, etc.). *)
let suite =
  [
    ( "conformance",
      List.map
        (fun label -> Alcotest.test_case label `Quick (test_server label))
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
        ] );
  ]
