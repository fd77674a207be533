(* Scenario builder: the paper's standard installation (§6) — diskless
   workstations each running a context prefix server, virtual terminal
   server, program manager and exception server; shared file servers;
   a printer server; a mail server; a time server. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration
module Ethernet = Vnet.Ethernet
module Domain_server = Vdomains.Domain_server
open Vnaming
open Vservices

type workstation = {
  ws_index : int;
  ws_name : string;
  ws_host : Vmsg.t Kernel.host;
  ws_prefix : Prefix_server.t;
  ws_terminal : Terminal_server.t;
  ws_vgts : Vgts.t;
  ws_programs : Program_manager.t;
  ws_exceptions : Exception_server.t;
}

type t = {
  engine : Vsim.Engine.t;
  net : Vmsg.t Kernel.packet Ethernet.t;
  domain : Vmsg.t Kernel.domain;
  workstations : workstation array;
  file_servers : File_server.t array;
  printer : Printer_server.t;
  mail : Mail_server.t;
  internet : Internet_server.t;
  time_pid : Pid.t;
  local_fs : File_server.t option;
      (* a file server co-resident with one workstation, for the
         local-vs-remote measurements of §6 *)
  prng : Vsim.Prng.t;
  obs : Vobs.Hub.t;
}

(* Network address plan: workstations from 1, servers from 100. *)
let ws_addr i = 1 + i
let fs_addr i = 100 + i
let printer_addr = 200
let mail_addr = 201
let internet_addr = 202

(* Domain servers from 50, clear of both. *)
let dom_addr i = 50 + i

let standard_prefixes t ws =
  let logical service context = `Logical (service, context) in
  [
    ("storage", logical Service.Id.storage Context.Well_known.default);
    ("home", logical Service.Id.storage Context.Well_known.home);
    ("bin", logical Service.Id.storage Context.Well_known.programs);
    ("printer", logical Service.Id.printer Context.Well_known.default);
    ("mail", logical Service.Id.mail Context.Well_known.default);
    ("internet", logical Service.Id.internet Context.Well_known.default);
    ( "terminals",
      `Static
        (Context.spec
           ~server:(Terminal_server.pid ws.ws_terminal)
           ~context:Context.Well_known.default) );
    ( "programs",
      `Static
        (Context.spec
           ~server:(Program_manager.pid ws.ws_programs)
           ~context:Context.Well_known.default) );
    ( "windows",
      `Static
        (Context.spec
           ~server:(Vgts.pid ws.ws_vgts)
           ~context:Context.Well_known.default) );
  ]
  @ List.mapi
      (fun i fs ->
        ( Fmt.str "fs%d" i,
          `Static (File_server.spec fs ~context:Context.Well_known.default) ))
      (Array.to_list t.file_servers)

let to_prefix_target = function
  | `Static spec -> Prefix_server.Static spec
  | `Logical (service, context) -> Prefix_server.Logical { service; context }

(* Build the installation; nothing runs until the engine does.
   [local_file_server_on] additionally runs a file server process on
   that workstation (Local scope), bound to the "[localfs]" prefix. *)
let build ?(config = Calibration.ethernet_3mbit) ?(cost = Vmsg.cost_model)
    ?(topology = Vnet.Topology.Shared_medium) ?(workstations = 3)
    ?(file_servers = 2) ?local_file_server_on ?(seed = 42) ?(tracing = false)
    () =
  let engine = Vsim.Engine.create () in
  let net = Ethernet.create ~seed ~topology ~config engine in
  let domain = Kernel.create_domain ~seed ~cost engine net in
  (* Attach observability (kernel and wire) before any host boots so
     every layer sees it. Pure bookkeeping: simulated timings are
     identical with [tracing] on or off. *)
  let obs = Vobs.Hub.create ~tracing () in
  Kernel.set_obs domain obs;
  (* The kernel is parametric in the message type and cannot read the
     trace context a request carries; teach it where Vmsg keeps it so
     flight-recorder events are stamped with the active trace id. *)
  Kernel.set_trace_of domain (fun (m : Vmsg.t) ->
      match m.Vmsg.name with
      | Some req -> req.Csname.trace.Vobs.Span.trace
      | None -> 0);
  let fss =
    Array.init file_servers (fun i ->
        let host = Kernel.boot_host domain ~name:(Fmt.str "fs%d" i) (fs_addr i) in
        File_server.start host ~name:(Fmt.str "fs%d" i) ~owner:"system" ())
  in
  let printer_host = Kernel.boot_host domain ~name:"printer" printer_addr in
  let printer = Printer_server.start printer_host in
  let mail_host = Kernel.boot_host domain ~name:"mailhost" mail_addr in
  let mail = Mail_server.start mail_host in
  let internet_host = Kernel.boot_host domain ~name:"gateway" internet_addr in
  let internet = Internet_server.start internet_host in
  let time_pid = Time_server.start mail_host in
  let wss =
    Array.init workstations (fun i ->
        let name = Fmt.str "ws%d" i in
        let host = Kernel.boot_host domain ~name (ws_addr i) in
        let ws_terminal = Terminal_server.start host in
        let ws_vgts = Vgts.start host in
        let ws_programs = Program_manager.start host in
        let ws_exceptions = Exception_server.start host in
        let ws_prefix = Prefix_server.start host ~owner:name in
        {
          ws_index = i;
          ws_name = name;
          ws_host = host;
          ws_prefix;
          ws_terminal;
          ws_vgts;
          ws_programs;
          ws_exceptions;
        })
  in
  let local_fs =
    Option.map
      (fun i ->
        File_server.start wss.(i).ws_host
          ~name:(Fmt.str "localfs%d" i)
          ~owner:"system" ~scope:Service.Local ())
      local_file_server_on
  in
  let t =
    {
      engine;
      net;
      domain;
      workstations = wss;
      file_servers = fss;
      printer;
      mail;
      internet;
      time_pid;
      local_fs;
      prng = Vsim.Prng.create ~seed;
      obs;
    }
  in
  (* Install the standard per-user prefixes. *)
  Array.iter
    (fun ws ->
      List.iter
        (fun (name, target) ->
          match
            Prefix_server.add_binding ws.ws_prefix name (to_prefix_target target)
          with
          | Ok () -> ()
          | Error code ->
              invalid_arg (Fmt.str "standard prefix %S: %a" name Reply.pp code))
        (standard_prefixes t ws))
    t.workstations;
  (match (local_fs, local_file_server_on) with
  | Some fs, Some i ->
      let ws = wss.(i) in
      (match
         Prefix_server.add_binding ws.ws_prefix "localfs"
           (Prefix_server.Static
              (File_server.spec fs ~context:Context.Well_known.default))
       with
      | Ok () -> ()
      | Error code -> invalid_arg (Fmt.str "localfs prefix: %a" Reply.pp code))
  | _ -> ());
  t

let workstation t i = t.workstations.(i)
let file_server t i = t.file_servers.(i)

(* The installation shapes built on top of [build]. *)

let install_replicas t ~factor =
  let members =
    List.init factor (fun i ->
        match Kernel.host_of_addr t.domain (fs_addr i) with
        | Some host -> (host, t.file_servers.(i))
        | None -> assert false)
  in
  let rset = Replica.install t.domain ~members () in
  let target = Replica.target rset in
  Array.iter
    (fun ws ->
      match Prefix_server.add_binding ws.ws_prefix "rstore" target with
      | Ok () -> ()
      | Error code -> invalid_arg (Fmt.str "rstore prefix: %a" Reply.pp code))
    t.workstations;
  rset

let domain_chain t ~depth =
  let ok what = function
    | Ok () -> ()
    | Error code -> invalid_arg (Fmt.str "domain %s: %a" what Reply.pp code)
  in
  let servers =
    Array.init depth (fun i ->
        let name = Fmt.str "dom%d" i in
        let host =
          match Kernel.host_of_addr t.domain (dom_addr i) with
          | Some host -> host
          | None -> Kernel.boot_host t.domain ~name (dom_addr i)
        in
        Domain_server.start host ~name ())
  in
  for i = 0 to depth - 2 do
    ok "delegate"
      (Domain_server.delegate servers.(i)
         (Fmt.str "d%d" (i + 1))
         (Domain_server.spec servers.(i + 1) ()))
  done;
  ok "bind"
    (Domain_server.bind servers.(depth - 1) "leaf"
       (File_server.spec t.file_servers.(0)
          ~context:Context.Well_known.default));
  servers

let remove_domain_chain t servers =
  Array.iter
    (fun ds ->
      ignore (Kernel.destroy_process t.domain (Domain_server.pid ds) : bool))
    servers

let restart_file_server ?replicas t addr =
  let revived = Option.bind replicas (fun rset -> Replica.revive rset addr) in
  Array.iteri
    (fun i old ->
      if fs_addr i = addr then
        match (revived, Kernel.host_of_addr t.domain addr) with
        | Some fresh, _ -> t.file_servers.(i) <- fresh
        | None, Some host ->
            t.file_servers.(i) <- File_server.restart_from old host
        | None, None -> ())
    t.file_servers

(* The default current context a fresh program is handed: the first
   file server's root. *)
let default_context t =
  File_server.spec t.file_servers.(0) ~context:Context.Well_known.default

(* [spawn_client t ~ws ~name body] runs [body] as a process on
   workstation [ws] with a standard run-time environment. *)
let spawn_client t ~ws ?(name = "client") ?current body =
  let w = t.workstations.(ws) in
  Kernel.spawn w.ws_host ~name (fun self ->
      let current = Option.value ~default:(default_context t) current in
      match Vruntime.Runtime.make self ~current with
      | Ok env -> body self env
      | Error e -> failwith (Fmt.str "client %s: no runtime: %a" name Vio.Verr.pp e))

(* Run the whole simulation to quiescence (or a horizon). *)
let run ?until t = Vsim.Engine.run ?until t.engine
