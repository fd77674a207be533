(* The exception server: collects exception reports from processes on
   its workstation and exposes the recent ones as a context directory,
   one more object type under the uniform listing machinery (§6). *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
open Vnaming

type report = { culprit : Pid.t; what : string; at : float }

type t = {
  mutable reports : report list; (* newest first *)
  mutable kept : int;
  instances : (t, bytes) Instance_server.t;
  stats : Csnh.server_stats;
  mutable pid : Pid.t option;
}

let keep_max = 64

let pid t = Option.get t.pid
let reports t = List.rev t.reports

let describe r =
  Descriptor.make ~obj_type:Descriptor.Process ~created:r.at
    ~attrs:[ ("exception", r.what) ]
    (Pid.to_string r.culprit)

let record t ~now ~culprit what =
  t.reports <- { culprit; what; at = now } :: t.reports;
  t.kept <- t.kept + 1;
  if t.kept > keep_max then begin
    t.reports <- List.filteri (fun i _ -> i < keep_max) t.reports;
    t.kept <- keep_max
  end

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let now () = Vsim.Engine.now engine in
  let t =
    {
      reports = [];
      kept = 0;
      instances =
        Instance_server.create
          (Instance_server.images ~describe:(fun t ->
               Descriptor.make ~obj_type:Descriptor.Directory
                 ~size:(List.length t.reports) "[exceptions]"));
      stats = Csnh.make_stats "exception";
      pid = None;
    }
  in
  let handlers =
    {
      Csnh.valid_context = (fun ctx -> ctx = Context.Well_known.default);
      lookup = (fun _ _ -> Csnh.Stop);
      handle_csname =
        (fun ~sender:_ msg _req _ctx remaining ->
          let open Vmsg in
          match remaining with
          | [] when msg.code = Op.open_instance ->
              let image =
                Descriptor.directory_to_bytes (List.map describe (reports t))
              in
              Instance_server.add t.instances image
                ~file_size:(Bytes.length image)
          | [] when msg.code = Op.map_context ->
              ok
                ~payload:
                  (P_context_spec
                     (Context.spec ~server:(pid t)
                        ~context:Context.Well_known.default))
                ()
          | _ -> reply Reply.Bad_operation);
      handle_other =
        (fun ~sender:_ msg ->
          match Instance_server.handle_io t.instances t msg with
          | Some r -> Some r
          | None ->
              if msg.Vmsg.code = Svc.Op.report_exception then
                match msg.Vmsg.payload with
                | Svc.P_exception_report { culprit; what } ->
                    record t ~now:(now ()) ~culprit what;
                    Some (Vmsg.ok ())
                | _ -> Some (Vmsg.reply Reply.Bad_operation)
              else None);
    }
  in
  let server_pid =
    Kernel.spawn host ~name:"exception-server" (fun self ->
        Csnh.serve self ~stats:t.stats handlers)
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.exception_handler server_pid Service.Local;
  t

(* Client stub used by run-time error paths. *)
let report self ~culprit what =
  match
    Kernel.get_pid self ~service:Service.Id.exception_handler Service.Local
  with
  | None -> ()
  | Some server ->
      ignore
        (Kernel.send self server
           (Vmsg.request
              ~payload:(Svc.P_exception_report { culprit; what })
              Svc.Op.report_exception))
