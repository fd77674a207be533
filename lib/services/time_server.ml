(* The time service: the paper's example of a simple service where the
   client binds service to server pid on each operation. *)

module Kernel = Vkernel.Kernel
module Service = Vkernel.Service
open Vnaming

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let server_pid =
    Kernel.spawn host ~name:"time-server" (fun self ->
        let rec loop () =
          let msg, sender = Kernel.receive self in
          let reply =
            if msg.Vmsg.code = Svc.Op.get_time then
              Vmsg.ok ~payload:(Svc.P_time (Vsim.Engine.now engine)) ()
            else Vmsg.reply Reply.Bad_operation
          in
          ignore (Kernel.reply self ~to_:sender reply);
          loop ()
        in
        loop ())
  in
  Kernel.set_pid host ~service:Service.Id.time server_pid Service.Both;
  server_pid

(* Client stub: service-to-pid binding happens on every call (§4.2). *)
let get_time self =
  match Kernel.get_pid self ~service:Service.Id.time Vkernel.Service.Both with
  | None -> Error (Vio.Verr.Denied Reply.No_server)
  | Some server -> (
      match Vio.Client.transact self ~server (Vmsg.request Svc.Op.get_time) with
      | Error e -> Error e
      | Ok ({ Vmsg.payload = Svc.P_time t; _ }, _) -> Ok t
      | Ok _ -> Error (Vio.Verr.Protocol "GetTime reply"))
