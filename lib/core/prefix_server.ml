(* The context prefix server (§5.8, §6).

   One runs per user (per workstation), holding that user's symbolic
   names for contexts of interest. A CSname beginning '[prefix]' is
   routed here by the client run-time; the server parses the prefix,
   rewrites the standard fields of the request, and forwards it to the
   server implementing the bound context, dropping out of the
   transaction (the target replies directly to the client).

   Bindings are either static (server-pid, context-id) pairs or
   "logical" (service, well-known-context) pairs resolved with GetPid at
   each use, so a service that is re-registered after a server crash
   keeps resolving (§6). *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration

type target =
  | Static of Context.spec
  | Logical of { service : int; context : Context.id }
  | Replicated of { group : int; context : Context.id }
      (* a context implemented transparently by a group of servers (§7) *)

let pp_target ppf = function
  | Static spec -> Context.pp_spec ppf spec
  | Logical { service; context } ->
      Fmt.pf ppf "(service %s, %a)" (Service.Id.to_string service)
        Context.pp_id context
  | Replicated { group; context } ->
      Fmt.pf ppf "(group %d, %a)" group Context.pp_id context

type t = {
  owner : string;
  bindings : (string, target) Hashtbl.t;
  instances : (unit, Instance_server.nothing) Instance_server.t;
  stats : Csnh.server_stats;
  mutable pid : Pid.t option;
  mutable next_wseq : int;
      (* per-coordinator sequence number for replicated writes *)
}

let owner t = t.owner
let stats t = t.stats
let pid t = match t.pid with Some p -> p | None -> failwith "prefix server not started"

let bindings t =
  Hashtbl.fold (fun name target acc -> (name, target) :: acc) t.bindings []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let binding_count t = Hashtbl.length t.bindings

(* Live data bytes held per binding: the name, a one-byte tag, and an
   8-byte target (pid + context id or service + context id). Used by the
   E5 memory-footprint experiment. *)
let binding_bytes name = String.length name + 1 + 8

let data_bytes t =
  Hashtbl.fold (fun name _ acc -> acc + binding_bytes name) t.bindings 0 + 64

(* Accept a prefix name with or without its brackets. *)
let strip_brackets name =
  let n = String.length name in
  if n >= 2 && name.[0] = Csname.prefix_open && name.[n - 1] = Csname.prefix_close
  then String.sub name 1 (n - 2)
  else name

let add_binding t name target =
  let name = strip_brackets name in
  if name = "" || String.contains name '/' then Error Reply.Illegal_name
  else if Hashtbl.mem t.bindings name then Error Reply.Duplicate_name
  else begin
    Hashtbl.replace t.bindings name target;
    Ok ()
  end

let delete_binding t name =
  let name = strip_brackets name in
  if Hashtbl.mem t.bindings name then begin
    Hashtbl.remove t.bindings name;
    Ok ()
  end
  else Error Reply.Not_found

(* Resolve a binding to a concrete context; logical bindings perform
   GetPid at each use. Replicated bindings have no single concrete
   context — the forwarding path multicasts instead. *)
let resolve self target =
  match target with
  | Static spec -> Ok spec
  | Logical { service; context } -> (
      match Kernel.get_pid self ~service Service.Both with
      | Some server -> Ok (Context.spec ~server ~context)
      | None -> Error Reply.No_server)
  | Replicated _ -> Error Reply.No_server

let describe_binding t ~now name target =
  let target_string = Fmt.str "%a" pp_target target in
  Descriptor.make ~obj_type:Descriptor.Prefix_binding
    ~size:(binding_bytes name) ~owner:t.owner ~created:now ~modified:now
    ~attrs:[ ("target", target_string) ]
    name

(* A client's new binding must be listable. The installation's own, set
   up under constant names, skip formatting their targets. *)
let add_client_binding t name target =
  if Csnh.listable (describe_binding t ~now:0.0 (strip_brackets name) target)
  then add_binding t name target
  else Error Reply.Illegal_name

(* --- request handling --- *)

(* Answer the request here, closing this hop's span with the reply's
   code. *)
let reply_with self r ~sender ~span m =
  Csnh.reply_closing self r ~sender ~span ~index_to:(-1) m

let reply_error self r ~sender ~span code =
  reply_with self r ~sender ~span (Vmsg.reply code)

(* Write-all fan-out for a logical binding whose service is bound to a
   replica group (read-one/write-all). The prefix server is the
   coordinator: it stamps the rewritten request with its own (origin,
   seq), appends it to the group's write log, then sends it to every
   reachable member in turn, with one same-seq retransmission each (the
   member's {!Seq_guard} deduplicates). A member answering Retry to a
   stamped write reports a sequence gap (it missed an earlier write and
   refuses to apply out of order); the client gets the first other
   member reply, or No_server.

   With no reachable member nothing is logged and no seq is taken. A
   logged entry stays, and replay delivers it to every member, so the
   replicas converge even when the client saw the write fail: the
   at-most-once contract. Serializing all writes for the service
   through this one process gives replicas one application order.
   [req] is the request already rewritten for the members: index past
   the binding, context the bound one. *)
let replicate_write t self r ~sender ~span ~service (msg : Vmsg.t) req =
  let d = Kernel.domain_of_self self in
  let origin = Pid.to_int (pid t) in
  let trace = req.Csname.trace.Vobs.Span.trace in
  let req = Events.child r ~trace ~span req in
  let seq = t.next_wseq in
  let msg' = Vmsg.with_wseq (Vmsg.with_name msg req) { Vmsg.origin; seq } in
  (* The member snapshot and the append share this event step, with no
     kernel call or delay between them; keep it so. A catch-up enrolls
     its member in one event step too, so each write is either logged
     before that step and replayed, or sent to the enrolled member. *)
  let requester = Kernel.host_addr (Kernel.host_of_self self) in
  let members = Kernel.service_group_members d ~requester ~service in
  if members <> [] then begin
    t.next_wseq <- seq + 1;
    Kernel.log_group_write d ~service ~origin ~seq msg'
  end;
  Events.fan_out r ~trace ~code:msg.Vmsg.code ~origin ~seq
    ~members:(List.length members);
  (* A member's reply, [None] for a gap rejection or a lost member. *)
  let rec reply_of ~retried member =
    match Kernel.send self member msg' with
    | Ok (m, _) when Vmsg.reply_code m = Some Reply.Retry ->
        Events.count r "replicate-out-of-sync";
        None
    | Ok (m, _) -> Some m
    | Error _ when not retried ->
        Events.count r "replicate-retry";
        reply_of ~retried:true member
    | Error _ ->
        Events.count r "replicate-member-lost";
        None
  in
  match List.filter_map (reply_of ~retried:false) members with
  | m :: _ -> reply_with self r ~sender ~span m
  | [] -> reply_with self r ~sender ~span (Vmsg.reply Reply.No_server)

(* An Open that creates or fills a file. *)
let opens_for_writing (msg : Vmsg.t) =
  msg.Vmsg.code = Vmsg.Op.open_instance
  &&
  match msg.Vmsg.payload with
  | Vmsg.P_open { mode = Vmsg.Write | Vmsg.Append } -> true
  | _ -> false

(* What a request through a logical binding whose service is currently
   replica-bound does: a CSname write is fanned out write-all, and an
   Open for writing is refused, since it would create or fill the file
   on the one member GetPid picks. Any other request is forwarded. *)
type replica_route = Forward | Write_all of int * Context.id | Refuse

let replica_route self (msg : Vmsg.t) = function
  | Logical { service; context }
    when Kernel.service_group (Kernel.domain_of_self self) ~service <> None ->
      if Vmsg.Op.is_csname_write msg.Vmsg.code then Write_all (service, context)
      else if opens_for_writing msg then Refuse
      else Forward
  | Logical _ | Static _ | Replicated _ -> Forward

(* Send a request on through the binding it named, interpretation
   continuing at [index], just past the binding, in the bound context. A
   context implemented by a whole group gets the request multicast (the
   first member to answer serves it); a write against a replica-bound
   service is fanned out write-all, and an Open for writing refused;
   anything else is resolved (GetPid for a logical binding) and
   forwarded. *)
let dispatch t self r ~sender ~span (msg : Vmsg.t) target (req : Csname.req)
    ~index =
  match target with
  | Replicated { group; context } ->
      Vsim.Stats.Counter.incr t.stats.Csnh.forwards;
      ignore
        (Kernel.forward_group self ~from_:sender ~group
           (Vmsg.with_name msg
              (Events.forward r ~span { req with Csname.index; context })))
  | Static _ | Logical _ -> (
      match replica_route self msg target with
      | Write_all (service, context) ->
          Vsim.Stats.Counter.incr t.stats.Csnh.forwards;
          replicate_write t self r ~sender ~span ~service msg
            { req with Csname.index; context }
      | Refuse -> reply_error self r ~sender ~span Reply.Bad_operation
      | Forward -> (
          match resolve self target with
          | Error code -> reply_error self r ~sender ~span code
          | Ok spec -> (
              Vsim.Stats.Counter.incr t.stats.Csnh.forwards;
              let req' =
                Events.forward r ~span
                  { req with Csname.index; context = spec.Context.context }
              in
              (* A failed forward has already failed the sender's
                 transaction; the client's retry resolves the binding
                 afresh. *)
              ignore
                (Kernel.forward self ~from_:sender ~to_:spec.Context.server
                   (Vmsg.with_name msg req')))))

let handle_prefixed t self r ~sender (msg : Vmsg.t) req =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
  Vsim.Stats.Counter.incr t.stats.Csnh.requests;
  let span =
    Events.request r ~counted:"prefix-lookup"
      ~op:(Vmsg.Op.to_string msg.Vmsg.code)
      req
  in
  (* The prefix parse and request rewrite: the processing the paper
     measures as the 3.94-3.99 ms additive cost of prefixed Opens. *)
  Vsim.Proc.delay engine Calibration.prefix_parse_cpu;
  match Csname.parse_prefix req with
  | Error code -> reply_error self r ~sender ~span code
  | Ok (prefix, index) -> (
      match Hashtbl.find t.bindings prefix with
      | exception Not_found -> reply_error self r ~sender ~span Reply.Not_found
      | target -> dispatch t self r ~sender ~span msg target req ~index)

(* The server's own context: its bindings, one flat context (§5.6: a
   binding is described exactly as the context directory lists it).
   AddContextName and DeleteContextName add and delete a binding (§5.7's
   optional operations, "ordinarily implemented only in context prefix
   servers"), and MapContext on one resolves it; any other operation on
   one is refused, since operating INTO the target takes the bracketed
   syntax or a deeper name. *)
let context t self ~now =
  {
    Csnh.directory = "[prefixes]";
    owner = t.owner;
    objects = (fun () -> bindings t);
    describe =
      (fun (name, target) -> describe_binding t ~now:(now ()) name target);
    find =
      (fun name ->
        Ok
          (Option.map
             (fun target -> (name, target))
             (Hashtbl.find_opt t.bindings name)));
    listings = Instance_server.listings t.instances;
    handle_name =
      (fun (msg : Vmsg.t) name found ->
        let code = msg.Vmsg.code in
        match (found, msg.Vmsg.payload) with
        | _, Vmsg.P_context_spec spec when code = Vmsg.Op.add_context_name ->
            Vmsg.answer (add_client_binding t name (Static spec))
        | _, Vmsg.P_logical_spec { service; context }
          when code = Vmsg.Op.add_context_name ->
            Vmsg.answer (add_client_binding t name (Logical { service; context }))
        | _ when code = Vmsg.Op.add_context_name ->
            Vmsg.reply Reply.Bad_operation
        | _ when code = Vmsg.Op.delete_context_name ->
            Vmsg.answer (delete_binding t name)
        | None, _ -> Vmsg.reply Reply.Not_found
        | Some (_, target), _ when code = Vmsg.Op.map_context -> (
            match resolve self target with
            | Ok spec -> Vmsg.ok ~payload:(Vmsg.P_context_spec spec) ()
            | Error code -> Vmsg.reply code)
        | Some _, _ -> Vmsg.reply Reply.Not_a_context);
  }

(* An unprefixed CSname request interpreted in this server's (flat)
   context. Multi-component names descend through a binding into its
   target server, like any other context pointer; a name of one
   component, a binding's own AddContextName and DeleteContextName
   included, is answered by the flat context. So is an operation on a
   bare "[p]", which names binding p itself. *)
let handle_unprefixed t self r ~context ~sender (msg : Vmsg.t) req =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
  Vsim.Stats.Counter.incr t.stats.Csnh.requests;
  let op = Vmsg.Op.to_string msg.Vmsg.code in
  let span = Events.request r ~counted:op ~op req in
  Vsim.Proc.delay engine Calibration.csname_common_cpu;
  let reply_with m = reply_with self r ~sender ~span m in
  match Csname.validate req with
  | Error code -> reply_with (Vmsg.reply code)
  | Ok () ->
      if req.Csname.context <> Context.Well_known.default then
        reply_with (Vmsg.reply Reply.Bad_context)
      else begin
        Events.count r "lookup";
        Vsim.Proc.delay engine Calibration.component_lookup_cpu;
        let names =
          match Csname.parse_prefix req with
          | Ok (p, _) -> [ p ]
          | Error _ -> Csname.components (Csname.remaining req)
        in
        match names with
        | name :: _ :: _ -> (
            match Hashtbl.find_opt t.bindings name with
            | None -> reply_with (Vmsg.reply Reply.Not_found)
            | Some target ->
                dispatch t self r ~sender ~span msg target req
                  ~index:(Csname.advance_past req name).Csname.index)
        | remaining ->
            reply_with
              (Csnh.flat_reply context ~server:(pid t) msg
                 Context.Well_known.default remaining)
      end

(* An operation on a name itself whose name is a bare "[p]" acts on
   binding p, in this server's context (PROTOCOL.md §4, step 4). *)
let names_binding (msg : Vmsg.t) req =
  Vmsg.Op.acts_on_name msg.Vmsg.code
  && Csname.last_component req.Csname.name = 0
  && String.contains req.Csname.name Csname.prefix_close

let handle_other t self (msg : Vmsg.t) =
  match Instance_server.handle_io t.instances () msg with
  | Some reply -> Some reply
  | None ->
      if msg.Vmsg.code = Vmsg.Op.inverse_map_context then
        match msg.Vmsg.payload with
        | Vmsg.P_context_spec wanted ->
            let found =
              List.find_opt
                (fun (_, target) ->
                  match target with
                  | Static spec -> Context.equal_spec spec wanted
                  | Logical _ -> (
                      match resolve self target with
                      | Ok spec -> Context.equal_spec spec wanted
                      | Error _ -> false)
                  | Replicated _ ->
                      (* Any member could have answered; the inverse map
                         cannot identify one. *)
                      false)
                (bindings t)
            in
            (match found with
            | Some (name, _) ->
                Some (Vmsg.ok ~payload:(Vmsg.P_name ("[" ^ name ^ "]")) ())
            | None -> Some (Vmsg.reply Reply.Not_found))
        | _ -> Some (Vmsg.reply Reply.Bad_operation)
      else None

(* [start host ~owner] spawns the prefix server and registers it as
   this workstation's (local-scope) context-prefix service. *)
let start host ~owner =
  let t =
    {
      owner;
      bindings = Hashtbl.create 16;
      instances = Instance_server.create Instance_server.listings_only;
      stats = Csnh.make_stats "prefix";
      pid = None;
      next_wseq = 1;
    }
  in
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let now () = Vsim.Engine.now engine in
  let server_pid =
    Kernel.spawn host ~name:(owner ^ "-prefix-server") (fun self ->
        let r = Events.of_process self in
        let context = context t self ~now in
        let rec loop () =
          let msg, sender = Kernel.receive self in
          (match msg.Vmsg.name with
          | Some req
            when Vmsg.Op.is_csname_request msg.Vmsg.code
                 && Csname.starts_with_prefix req
                 && not (names_binding msg req) ->
              (* Prefixed names are forwarded wherever they lead, even
                 for add/delete: "[fs0]x" adds a name in fs0's context,
                 not a binding here. *)
              handle_prefixed t self r ~sender msg req
          | Some req when Vmsg.Op.is_csname_request msg.Vmsg.code ->
              handle_unprefixed t self r ~context ~sender msg req
          | Some _ | None ->
              Vsim.Stats.Counter.incr t.stats.Csnh.requests;
              Events.count r (Vmsg.Op.to_string msg.Vmsg.code);
              let reply_msg =
                match handle_other t self msg with
                | Some m -> m
                | None -> Vmsg.reply Reply.Bad_operation
              in
              ignore (Kernel.reply self ~to_:sender reply_msg));
          loop ()
        in
        loop ())
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.context_prefix server_pid Service.Local;
  t
