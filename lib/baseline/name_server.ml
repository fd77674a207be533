(* The §2.1 centralized baseline: a distinguished name server mapping
   full character-string names to (object server, low-level identifier)
   pairs. Clients look a name up here, then address the object server
   directly with the low-level id.

   This is the comparison system for experiment E6: it exhibits exactly
   the drawbacks §2.2 predicts — an extra transaction per name use, a
   consistency obligation on every create/delete (two-server updates
   that can be interrupted), and a central availability choke point. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration
open Vnaming

type binding = Vmsg.ns_binding = { object_server : Pid.t; low_id : int }

type t = { table : (string, binding) Hashtbl.t; mutable pid : Pid.t option }

let pid t = Option.get t.pid
let binding_count t = Hashtbl.length t.table

(* Direct registration for scenario setup (bypasses the wire). *)
let preload t name binding = Hashtbl.replace t.table name binding

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t = { table = Hashtbl.create 64; pid = None } in
  let server_pid =
    Kernel.spawn host ~name:"name-server" (fun self ->
        let rec loop () =
          let msg, sender = Kernel.receive self in
          let name =
            match msg.Vmsg.name with Some r -> Csname.remaining r | None -> ""
          in
          (* The centralized server still pays per-component
             interpretation cost for hierarchical names: the same
             work a file server does, only here for every object in the
             system. *)
          Vsim.Proc.delay engine
            (Calibration.csname_common_cpu
            +. (float_of_int (List.length (Csname.components name))
               *. Calibration.component_lookup_cpu));
          let reply_msg =
            if msg.Vmsg.code = Vmsg.Op.ns_register then
              match msg.Vmsg.payload with
              | Vmsg.P_ns_binding b ->
                  if Hashtbl.mem t.table name then Vmsg.reply Reply.Duplicate_name
                  else begin
                    Hashtbl.replace t.table name b;
                    Vmsg.ok ()
                  end
              | _ -> Vmsg.reply Reply.Bad_operation
            else if msg.Vmsg.code = Vmsg.Op.ns_unregister then
              if Hashtbl.mem t.table name then begin
                Hashtbl.remove t.table name;
                Vmsg.ok ()
              end
              else Vmsg.reply Reply.Not_found
            else if msg.Vmsg.code = Vmsg.Op.ns_lookup then
              match Hashtbl.find_opt t.table name with
              | Some b -> Vmsg.ok ~payload:(Vmsg.P_ns_binding b) ()
              | None -> Vmsg.reply Reply.Not_found
            else Vmsg.reply Reply.Bad_operation
          in
          ignore (Kernel.reply self ~to_:sender reply_msg);
          loop ()
        in
        loop ())
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.name_server server_pid Service.Both;
  t

(* --- client stubs --- *)

let named_request code name ?payload () =
  Vmsg.request ~name:(Csname.make_req name) ?payload code

let register self ~ns ~name binding =
  Result.map
    (fun ((_ : Vmsg.t), (_ : Pid.t)) -> ())
    (Vio.Client.transact self ~server:ns
       (named_request Vmsg.Op.ns_register name
          ~payload:(Vmsg.P_ns_binding binding) ()))

let unregister self ~ns ~name =
  Result.map
    (fun ((_ : Vmsg.t), (_ : Pid.t)) -> ())
    (Vio.Client.transact self ~server:ns
       (named_request Vmsg.Op.ns_unregister name ()))

let lookup self ~ns ~name =
  match
    Vio.Client.transact self ~server:ns
      (named_request Vmsg.Op.ns_lookup name ())
  with
  | Error e -> Error e
  | Ok ({ Vmsg.payload = Vmsg.P_ns_binding b; _ }, _) -> Ok b
  | Ok _ -> Error (Vio.Verr.Protocol "NsLookup reply carried no binding")

(* Open a named file the centralized way: look up at the name server,
   then open by low-level id at the object server. Two transactions
   where the distributed model uses one. *)
let open_via_ns self ~ns ~name ~mode =
  match lookup self ~ns ~name with
  | Error e -> Error e
  | Ok { object_server; low_id } -> (
      let msg =
        Vmsg.request
          ~payload:(Vmsg.P_low_id { low_id; mode })
          Vmsg.Op.open_by_low_id
      in
      match Vio.Client.transact self ~server:object_server msg with
      | Error e -> Error e
      | Ok ({ Vmsg.payload = Vmsg.P_instance info; _ }, replier) ->
          Ok { Vio.Client.server = replier; info }
      | Ok _ -> Error (Vio.Verr.Protocol "OpenByLowId reply"))

(* Delete a named object under the centralized model: the object at its
   server, then the name at the name server. [crash_between] simulates
   the failure window §2.2 describes — the object dies but its name
   survives, leaving the name service inconsistent. *)
let delete_via_ns self ~ns ~name ~object_env ~object_name ?(crash_between = false) () =
  match Vruntime.Runtime.remove object_env object_name with
  | Error e -> Error e
  | Ok () ->
      if crash_between then Ok `Interrupted_stale_name_left
      else (
        match unregister self ~ns ~name with
        | Ok () -> Ok `Clean
        | Error e -> Error e)
