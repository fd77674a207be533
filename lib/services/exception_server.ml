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
  instances : (unit, Instance_server.nothing) Instance_server.t;
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

(* Reports are named by their culprit's pid; a name finds the newest
   report about that process. *)
let context t =
  {
    Csnh.directory = "[exceptions]";
    owner = "system";
    objects = (fun () -> reports t);
    describe;
    find =
      (fun name ->
        Ok
          (List.find_opt (fun r -> Pid.to_string r.culprit = name) t.reports));
    listings = Instance_server.listings t.instances;
    handle_name = (fun _ _ _ -> Vmsg.reply Reply.Bad_operation);
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      reports = [];
      kept = 0;
      instances = Instance_server.create Instance_server.listings_only;
      pid = None;
    }
  in
  let other (msg : Vmsg.t) =
    match Instance_server.handle_io t.instances () msg with
    | Some r -> Some r
    | None ->
        if msg.code = Vmsg.Op.report_exception then
          match msg.payload with
          | Vmsg.P_exception_report { culprit; what } ->
              record t ~now:(Vsim.Engine.now engine) ~culprit what;
              Some (Vmsg.ok ())
          | _ -> Some (Vmsg.reply Reply.Bad_operation)
        else None
  in
  t.pid <-
    Some
      (Csnh.serve_flat host ~name:"exception-server"
         ~service:Service.Id.exception_handler Service.Local ~other
         (context t));
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
              ~payload:(Vmsg.P_exception_report { culprit; what })
              Vmsg.Op.report_exception))
