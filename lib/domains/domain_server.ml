(* A name-domain server: one node of the hierarchical federated name
   tree.

   A domain server is a CSNH server whose only objects are naming
   entries: each context is a table mapping component names to local
   sub-contexts, to child domain servers (delegations), or to leaf
   bindings into object servers (the domain/object boundary). Under the
   ordinary protocol it behaves exactly like any §5.4 server — crossing
   into a child delegation or a leaf binding becomes request forwarding,
   so a client without a resolver walks the whole tree transparently,
   one Forward per level.

   The iterative mode is what a caching {!Resolver} speaks: a
   MapContext request carrying the [Vmsg.P_resolve_step] marker asks the
   server to interpret as far as it can and then *answer* instead of
   forwarding. Crossing into a child domain yields a [Vmsg.P_referral] reply
   whose delegation record rides the standard {!Vmsg.binding} stamp —
   (how far interpretation reached, which (server, context) continues
   it) — the same zero-wire-byte path caching clients already learn
   bindings from. Crossing into a leaf binding, or ending on this
   server, yields a terminal [P_context_spec] reply, also stamped. The
   resolver follows referrals root-to-leaf itself, caching each one
   with a TTL.

   The delegation tables are configuration, durable across a crash the
   way a file server's disk is: [restart_from] boots a fresh process
   (new pid) over the surviving tables. Parents holding delegation
   records to the old incarnation re-stitch via [set_entry] — the
   revive hook's job, mirroring how logical prefix bindings re-resolve
   restarted object servers. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Calibration = Vnet.Calibration
open Vnaming

type entry =
  | Subcontext of Context.id  (** a context on this same server *)
  | Child of Context.spec  (** delegation to a child domain server *)
  | Bound of Context.spec  (** leaf binding into an object server *)

type t = {
  ds_name : string;
  contexts : (Context.id, (string, entry) Hashtbl.t) Hashtbl.t;
  instances : (unit, Instance_server.nothing) Instance_server.t;
      (* the open context listings; like any open instance, they do not
         survive a crash *)
  mutable pid : Pid.t option;
  (* Overload-protection policy; [None] = admission off. Like the
     delegation tables, it survives [restart_from]: a protected domain
     server comes back protected. *)
  mutable admission_cfg : Vservices.Admission.config option;
}

let apex = Context.Well_known.default

let name t = t.ds_name

let pid t =
  match t.pid with
  | Some p -> p
  | None -> failwith (Fmt.str "domain server %s not started" t.ds_name)

let spec t ?(context = apex) () = Context.spec ~server:(pid t) ~context

(* Overload protection: stored on the record, installed at every
   (re)spawn — the same adoption pattern as {!Vservices.File_server}. *)
let enable_admission t domain
    ?(config = Vservices.Admission.name_server ()) () =
  t.admission_cfg <- Some config;
  match t.pid with
  | Some p -> Vservices.Admission.install domain p config
  | None -> ()

let disable_admission t domain =
  t.admission_cfg <- None;
  match t.pid with
  | Some p -> Vservices.Admission.uninstall domain p
  | None -> ()

let admission_config t = t.admission_cfg
let table t ctx = Hashtbl.find_opt t.contexts ctx

(* --- building the tree (configuration, not protocol) --- *)

(* Add or replace — replacement is how a parent re-stitches a
   delegation to a revived child's new pid. A sub-context entry makes
   its context, empty, if it has none yet. *)
let set_entry t ?(ctx = apex) component entry =
  match table t ctx with
  | None -> Error Reply.Bad_context
  | Some tbl ->
      (match entry with
      | Subcontext id when not (Hashtbl.mem t.contexts id) ->
          Hashtbl.replace t.contexts id (Hashtbl.create 8)
      | Subcontext _ | Child _ | Bound _ -> ());
      Hashtbl.replace tbl component entry;
      Ok ()

let delegate t ?ctx component child = set_entry t ?ctx component (Child child)
let bind t ?ctx component target = set_entry t ?ctx component (Bound target)

let sorted_entries tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let entries t ?(ctx = apex) () =
  match table t ctx with None -> [] | Some tbl -> sorted_entries tbl

(* --- the CSNH view --- *)

let valid_context t ctx = Hashtbl.mem t.contexts ctx

let lookup t ctx component =
  match table t ctx with
  | None -> Csnh.Stop
  | Some tbl -> (
      match Hashtbl.find_opt tbl component with
      | Some (Subcontext id) -> Csnh.Descend id
      | Some (Child spec) | Some (Bound spec) -> Csnh.Cross spec
      | None -> Csnh.Stop)

let describe_entry t component = function
  | Subcontext id ->
      Descriptor.make ~obj_type:Descriptor.Directory
        ~size:(match table t id with Some tbl -> Hashtbl.length tbl | None -> 0)
        ~owner:t.ds_name component
  | Child _ | Bound _ ->
      Descriptor.make ~obj_type:Descriptor.Directory ~size:0 ~owner:t.ds_name
        component

(* A domain context answers as a flat context (§5.6: its directory
   lists its entries, each described as a directory); its own
   operations on one name are AddContextName, which binds a leaf here,
   and DeleteContextName, which deletes a delegation or a leaf binding.
   An operation on a name itself reaches here whatever the name holds;
   Open and MapContext follow a delegation or a leaf binding and descend
   into a sub-context, so they reach here only for a name with no
   entry. *)
let context t tbl =
  let handle_name (msg : Vmsg.t) component found =
    let open Vmsg in
    if msg.code = Op.add_context_name then
      match (msg.payload, found) with
      | P_context_spec _, Some _ -> reply Reply.Duplicate_name
      | P_context_spec target, None ->
          Hashtbl.replace tbl component (Bound target);
          ok ()
      | _ -> reply Reply.Bad_operation
    else if msg.code = Op.delete_context_name then
      match found with
      | Some (_, (Child _ | Bound _)) ->
          Hashtbl.remove tbl component;
          ok ()
      | Some (_, Subcontext _) -> reply Reply.No_permission
      | None -> reply Reply.Not_found
    else if msg.code = Op.map_context then reply Reply.Not_found
    else reply Reply.Bad_operation
  in
  {
    Csnh.directory = "domain:" ^ t.ds_name;
    owner = t.ds_name;
    objects = (fun () -> sorted_entries tbl);
    describe = (fun (component, e) -> describe_entry t component e);
    find =
      (fun component ->
        Ok
          (Option.map
             (fun e -> (component, e))
             (Hashtbl.find_opt tbl component)));
    listings = Instance_server.listings t.instances;
    handle_name;
  }

(* --- the iterative step ---

   Interpret as far as this server can, then answer: a referral (the
   walk crossed into a child domain), a terminal binding (it crossed
   the domain/object boundary, or ended on a context here), or the
   failure code. Costs are charged exactly like the generic loop's, so
   an iterative walk of the tree prices each level identically to a
   recursive hop. *)
let handle_step t self r ~sender (req : Csname.req) =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
  let charge ms = if ms > 0.0 then Vsim.Proc.delay engine ms in
  let span =
    Events.request r ~counted:"ResolveStep" ~op:"ResolveStep" req
  in
  charge Calibration.csname_common_cpu;
  (* Record which entry kind caused a Cross, to tell a referral from a
     terminal leaf binding. *)
  let crossed_child = ref false in
  let lookup ctx component =
    Events.count r "lookup";
    charge Calibration.component_lookup_cpu;
    let res = lookup t ctx component in
    (match (res, table t ctx) with
    | Csnh.Cross _, Some tbl -> (
        match Hashtbl.find_opt tbl component with
        | Some (Child _) -> crossed_child := true
        | Some _ | None -> crossed_child := false)
    | _ -> ());
    res
  in
  (* Answer with [m], closing this step's span with [outcome], counted
     when the step succeeded. *)
  let answer ~counted ~index_to outcome m =
    Events.finish r ~counted ~span ~index_to outcome;
    ignore (Kernel.reply self ~to_:sender m)
  in
  let failed code =
    answer ~counted:false ~index_to:(-1) (Reply.to_string code)
      (Vmsg.reply code)
  in
  match Csnh.walk ~valid_context:(valid_context t) ~lookup req with
  | Csnh.Fail code -> failed code
  | Csnh.Forward (spec, req') ->
      let upto = req'.Csname.index in
      if !crossed_child then
        answer ~counted:true ~index_to:upto "referral"
          (Vmsg.with_binding
             (Vmsg.ok ~payload:Vmsg.P_referral ())
             { Vmsg.upto; spec })
      else
        answer ~counted:true ~index_to:upto "terminal"
          (Vmsg.with_binding
             (Vmsg.ok ~payload:(Vmsg.P_context_spec spec) ())
             { Vmsg.upto; spec })
  | Csnh.Local (ctx, []) ->
      let s = Context.spec ~server:(Kernel.self_pid self) ~context:ctx in
      let upto = String.length req.Csname.name in
      answer ~counted:true ~index_to:upto "terminal"
        (Vmsg.with_binding
           (Vmsg.ok ~payload:(Vmsg.P_context_spec s) ())
           { Vmsg.upto; spec = s })
  | Csnh.Local (_, _ :: _) ->
      (* Components remain but none of them names a domain entry. *)
      failed Reply.Not_found

let is_resolve_step (msg : Vmsg.t) =
  (not msg.Vmsg.is_reply)
  && msg.Vmsg.code = Vmsg.Op.map_context
  && (match msg.Vmsg.payload with Vmsg.P_resolve_step -> true | _ -> false)

(* --- the serving process --- *)

let spawn_server host t =
  let server_pid =
    Kernel.spawn host ~name:t.ds_name (fun self ->
        (* The walk ends only in a context with a table: the starting
           one is valid, and a sub-context entry made its own. *)
        let handlers =
          Csnh.flat_contexts_handlers ~valid_context:(valid_context t)
            ~lookup:(lookup t)
            ~context:(fun ctx -> context t (Hashtbl.find t.contexts ctx))
            ~other:(fun msg -> Instance_server.handle_io t.instances () msg)
            ~server:(Kernel.self_pid self)
        in
        let handle =
          Csnh.handle_request self handlers (Csnh.make_stats t.ds_name)
        in
        let r = Events.of_process self in
        let rec loop () =
          let msg, sender = Kernel.receive self in
          (if is_resolve_step msg then
             match msg.Vmsg.name with
             | Some req -> handle_step t self r ~sender req
             | None ->
                 ignore (Kernel.reply self ~to_:sender (Vmsg.reply Reply.Illegal_name))
           else handle ~sender msg);
          loop ()
        in
        loop ())
  in
  t.pid <- Some server_pid;
  match t.admission_cfg with
  | Some cfg ->
      Vservices.Admission.install (Kernel.domain_of_host host) server_pid cfg
  | None -> ()

let start host ~name () =
  let t =
    {
      ds_name = name;
      contexts = Hashtbl.create 8;
      instances = Instance_server.create Instance_server.listings_only;
      pid = None;
      admission_cfg = None;
    }
  in
  Hashtbl.replace t.contexts apex (Hashtbl.create 8);
  spawn_server host t;
  t

(* Boot a fresh process over the surviving delegation tables of a
   crashed incarnation: new pid, same configuration, no open listings.
   Parents holding delegation records to the old pid re-stitch via
   [set_entry]. *)
let restart_from old host =
  let t =
    {
      old with
      instances = Instance_server.create Instance_server.listings_only;
      pid = None;
    }
  in
  spawn_server host t;
  t
