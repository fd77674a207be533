(* Protocol conformance: run the CSNH battery against every server in
   the installation — files, prefixes, terminals, windows, programs in
   execution, exception reports, printer jobs, mailboxes, TCP
   connections and a name domain all present the same client interface,
   which is the paper's uniformity claim made mechanical. The time
   server implements no name space, so it is left out.

   Run with: dune exec examples/protocol_conformance.exe *)

module Scenario = Vworkload.Scenario
module Conformance = Vworkload.Conformance
module File_server = Vservices.File_server
module Prefix_server = Vnaming.Prefix_server

let () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let ws = Scenario.workstation t 0 in
  (* A domain server on a host of its own, its root binding one name to
     the file server's root context. *)
  let domain =
    Vdomains.Domain_server.start
      (Vkernel.Kernel.boot_host t.Scenario.domain ~name:"dom0" 50)
      ~name:"dom0" ()
  in
  ignore
    (Vdomains.Domain_server.bind domain "files"
       (File_server.spec (Scenario.file_server t 0)
          ~context:Vnaming.Context.Well_known.default));
  (* The file server's root holds "shared", a cross-server pointer to
     the domain server's root (the curved arrow of Figure 4), so the
     file server's listing and queries include a pointer's record. *)
  ignore
    (Vservices.Fs.add_remote_link
       (File_server.fs (Scenario.file_server t 0))
       ~dir:Vservices.Fs.root_ino "shared"
       (Vdomains.Domain_server.spec domain ()));
  let servers =
    [
      ("file server", File_server.pid (Scenario.file_server t 0));
      ("prefix server", Prefix_server.pid ws.Scenario.ws_prefix);
      ("terminal server", Vservices.Terminal_server.pid ws.Scenario.ws_terminal);
      ("VGTS", Vservices.Vgts.pid ws.Scenario.ws_vgts);
      ( "program manager",
        Vservices.Program_manager.pid ws.Scenario.ws_programs );
      ( "exception server",
        Vservices.Exception_server.pid ws.Scenario.ws_exceptions );
      ("printer server", Vservices.Printer_server.pid t.Scenario.printer);
      ("mail server", Vservices.Mail_server.pid t.Scenario.mail);
      ("internet server", Vservices.Internet_server.pid t.Scenario.internet);
      ("domain server", Vdomains.Domain_server.pid domain);
    ]
  in
  let all_passed = ref true in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"conformance" (fun self _env ->
         List.iter
           (fun (label, server) ->
             let report = Conformance.check self ~label server in
             if not (Conformance.passed report) then all_passed := false;
             Fmt.pr "%a@." Conformance.pp_report report)
           servers));
  Scenario.run t;
  Fmt.pr "%s@."
    (if !all_passed then
       "every server speaks the same name-handling protocol: uniform access"
     else "CONFORMANCE FAILURES FOUND");
  exit (if !all_passed then 0 else 1)
