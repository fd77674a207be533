(* The standard name-mapping procedure (§5.4), the generic CSNH server
   loop, and the one handler of flat contexts.

   Any server implementing one or more name spaces conforms to this
   procedure: interpret components of the uninterpreted part of the name
   left-to-right in a running CurrentContext; when a component resolves
   to a context implemented by another server, rewrite the standard
   fields (name index, context id) and forward the request — which the
   server need not otherwise understand — to that server. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Calibration = Vnet.Calibration

(* What one name component means inside a given context. *)
type lookup_result =
  | Descend of Context.id  (** a context on this same server *)
  | Cross of Context.spec  (** a pointer to a context on another server *)
  | Delegate of Context.spec
      (** crossed like [Cross]: a delegation to a child domain *)
  | Stop  (** not a context here: a leaf object, or absent *)

type outcome =
  | Local of Context.id * string list
      (** interpretation ends here: final context and the components not
          consumed by context resolution (possibly none) *)
  | Forward of Context.spec * Csname.req
      (** crossed into another server's context: forward the request,
          rewritten with the new index and context id *)
  | Fail of Reply.code

(* [walk ~valid_context ~lookup req] runs the §5.4 procedure. Does not
   handle '[prefix]' syntax: the client run-time routes prefixed names
   to the context prefix server, so another server receiving one
   rejects it.

   The name is scanned in place from [req.index]: each component is cut
   out once, for [lookup]; the forwarded request is built only at a
   [Cross], and the list of unconsumed components only at a [Stop].
   With [on_name], the last component stops the walk whatever it names:
   the context that binds a name answers an operation on the name. *)
let rec walk_from ~lookup ~on_name (req : Csname.req) ctx i =
  let name = req.Csname.name in
  let start = Csname.skip_separators name i in
  if start >= String.length name then Local (ctx, [])
  else
    let stop = Csname.component_end name start in
    let next = Csname.skip_separators name stop in
    let follow = not (on_name && next >= String.length name) in
    let component = String.sub name start (stop - start) in
    match lookup ctx component with
    | Descend ctx' when follow -> walk_from ~lookup ~on_name req ctx' next
    | (Cross spec | Delegate spec) when follow ->
        let context = spec.Context.context in
        Forward (spec, { req with Csname.index = next; context })
    | Descend _ | Cross _ | Delegate _ | Stop ->
        Local (ctx, component :: Csname.components_from name stop)

let walk_name ~on_name ~valid_context ~lookup req =
  match Csname.validate req with
  | Error code -> Fail code
  | Ok () ->
      if Csname.starts_with_prefix req then Fail Reply.Illegal_name
      else if not (valid_context req.Csname.context) then Fail Reply.Bad_context
      else walk_from ~lookup ~on_name req req.Csname.context req.Csname.index

let walk = walk_name ~on_name:false

(* --- the generic server loop --- *)

type handlers = {
  valid_context : Context.id -> bool;
  lookup : Context.id -> string -> lookup_result;
      (** one component in one context; charged [component_lookup_cpu] *)
  handle_csname :
    sender:Pid.t -> Vmsg.t -> Csname.req -> Context.id -> string list -> Vmsg.t;
      (** a CSname request whose interpretation ended on this server:
          [ctx] is the final context and the string list the unconsumed
          components; returns the reply *)
  handle_other : sender:Pid.t -> Vmsg.t -> Vmsg.t option;
      (** non-CSname requests; [None] means not implemented *)
}

(* Statistics a CSNH server keeps about its own processing, used by the
   measurement harness to separate protocol cost from server-specific
   cost (the paper's Open figures exclude "server-specific actions"). *)
type server_stats = {
  requests : Vsim.Stats.Counter.t;
  forwards : Vsim.Stats.Counter.t;
  specific_ms : Vsim.Stats.Series.t;
      (** per-request processing time beyond the common CSname handling *)
}

let make_stats name =
  {
    requests = Vsim.Stats.Counter.create (name ^ ".requests");
    forwards = Vsim.Stats.Counter.create (name ^ ".forwards");
    specific_ms = Vsim.Stats.Series.create (name ^ ".specific-ms");
  }

(* How far into the name this hop's interpretation reached: everything
   up to the components it did not consume, counted as if they were
   joined by single separators. *)
let consumed_index req remaining =
  let total = String.length req.Csname.name in
  let index_to =
    match remaining with
    | [] -> total
    | first :: rest ->
        total
        - List.fold_left
            (fun n c -> n + 1 + String.length c)
            (String.length first) rest
  in
  max req.Csname.index (min index_to total)

let charge engine ms = if ms > 0.0 then Vsim.Proc.delay engine ms

let reply_outcome reply =
  match Vmsg.reply_code reply with
  | Some code -> Reply.to_string code
  | None -> "reply"

let reply_closing self r ~sender ~span ~index_to reply =
  if span <> 0 then
    Events.finish r ~counted:false ~span ~index_to (reply_outcome reply);
  ignore (Kernel.reply self ~to_:sender reply)

(* A resolve step's answer: a referral into a child domain or a terminal
   binding, stamped with the binding record (how far interpretation
   reached, which server and context continue it); its span closes as
   that outcome, counted. *)
let answer_step self r ~sender ~span ~referral ~upto spec =
  Events.finish r ~counted:true ~span ~index_to:upto
    (if referral then "referral" else "terminal");
  let payload =
    if referral then Vmsg.P_referral else Vmsg.P_context_spec spec
  in
  ignore
    (Kernel.reply self ~to_:sender
       (Vmsg.with_binding (Vmsg.ok ~payload ()) { Vmsg.upto; spec }))

(* Handle one request according to the protocol: reply, forward it
   along, or answer a resolve step where it would forward (csnh.mli,
   [serve]). Applied to its first three arguments once per server, it
   builds the lookup [walk] runs just once: that lookup counts and
   charges [component_lookup_cpu] for every component before the
   server's own lookup sees it, and notes whether it returned
   [Delegate]. A request then builds no closures. An operation on a name
   itself ({!Vmsg.Op.acts_on_name}) is answered by the context that
   binds the name's last component.

   Observability (when a hub is attached to the domain): every request
   is counted by op code under this server (a resolve step as
   ResolveStep), and a traced CSname request gets one span per hop, its
   parent link following the Forward chain ({!Events}). All of it is
   bookkeeping off the simulation clock, so timings are identical with
   tracing on or off. *)
let handle_request self handlers stats =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
  let r = Events.of_process self in
  let delegated = ref false in
  let lookup ctx component =
    Events.count r "lookup";
    charge engine Calibration.component_lookup_cpu;
    let result = handlers.lookup ctx component in
    delegated := (match result with Delegate _ -> true | _ -> false);
    result
  in
  fun ~sender (msg : Vmsg.t) ->
    (match stats with
    | Some s -> Vsim.Stats.Counter.incr s.requests
    | None -> ());
    match msg.Vmsg.name with
    | Some req when Vmsg.Op.is_csname_request msg.Vmsg.code -> (
        let t0 = (Vsim.Engine.clock engine).at in
        let step =
          match msg.Vmsg.payload with Vmsg.P_resolve_step -> true | _ -> false
        in
        let op =
          if step then "ResolveStep" else Vmsg.Op.to_string msg.Vmsg.code
        in
        let span = Events.request r ~counted:op ~op req in
        charge engine Calibration.csname_common_cpu;
        match
          walk_name
            ~on_name:(Vmsg.Op.acts_on_name msg.Vmsg.code)
            ~valid_context:handlers.valid_context ~lookup req
        with
        | Fail code ->
            reply_closing self r ~sender ~span ~index_to:req.Csname.index
              (Vmsg.reply code)
        | Forward (spec, req') when step ->
            answer_step self r ~sender ~span ~referral:!delegated
              ~upto:req'.Csname.index spec
        | Forward (spec, req') ->
            (match stats with
            | Some s -> Vsim.Stats.Counter.incr s.forwards
            | None -> ());
            (* The forwarded request hangs under this hop's span, so the
               next server's span links back here. On an error the
               kernel already failed the sender's transaction if it
               could; nothing more to do here. *)
            ignore
              (Kernel.forward self ~from_:sender ~to_:spec.Context.server
                 (Vmsg.with_name msg (Events.forward r ~span req')))
        | Local (ctx, []) when step ->
            answer_step self r ~sender ~span ~referral:false
              ~upto:(String.length req.Csname.name)
              (Context.spec ~server:(Kernel.self_pid self) ~context:ctx)
        | Local (_, _ :: _) when step ->
            reply_closing self r ~sender ~span ~index_to:req.Csname.index
              (Vmsg.reply Reply.Not_found)
        | Local (ctx, remaining) ->
            let reply = handlers.handle_csname ~sender msg req ctx remaining in
            (match stats with
            | Some s ->
                let elapsed = (Vsim.Engine.clock engine).at -. t0 in
                Vsim.Stats.Series.add s.specific_ms
                  (elapsed -. Calibration.csname_common_cpu)
            | None -> ());
            let index_to = consumed_index req remaining in
            (* Stamp the resolved binding into successful replies so
               caching clients learn (name-prefix -> server, context)
               pairs for free. The stamp fits the 32-byte message proper
               — no wire bytes, no clock, so non-caching clients see
               byte- and time-identical behaviour. *)
            let reply =
              if Vmsg.succeeded reply && index_to > 0 then
                Vmsg.with_binding reply
                  {
                    Vmsg.upto = index_to;
                    spec =
                      Context.spec ~server:(Kernel.self_pid self) ~context:ctx;
                  }
              else reply
            in
            reply_closing self r ~sender ~span ~index_to reply)
    | Some _ | None ->
        Events.count r (Vmsg.Op.to_string msg.Vmsg.code);
        let reply =
          match handlers.handle_other ~sender msg with
          | Some reply -> reply
          | None -> Vmsg.reply Reply.Bad_operation
        in
        ignore (Kernel.reply self ~to_:sender reply)

(* Run a CSNH server forever, recording [stats] if given. *)
let serve self ?stats handlers =
  let handle = handle_request self handlers stats in
  let rec loop () =
    let msg, sender = Kernel.receive self in
    handle ~sender msg;
    loop ()
  in
  loop ()

(* --- flat contexts ---

   One context whose every object is named by a single component (§2.2:
   servers with a few transient objects keep their names in memory).
   What every flat context answers is here, once; a server supplies its
   objects and its other one-name operations. Nothing here touches the
   clock: the charges are the server loop's. *)

type 'o flat = {
  directory : string;
  owner : string;
  objects : unit -> 'o list;
  describe : 'o -> Descriptor.t;
  find : string -> ('o option, Reply.code) result;
  listings : Instance_server.listings;
  handle_name : Vmsg.t -> string -> 'o option -> Vmsg.t;
}

let listable (d : Descriptor.t) =
  Descriptor.fits ~owner:d.owner ~attrs:d.attrs d.name

let flat_reply flat ~server (msg : Vmsg.t) ctx remaining =
  let open Vmsg in
  match remaining with
  | [] ->
      (* The context itself: its directory reads as a file (§5.6),
         opened in any mode. *)
      if msg.code = Op.open_instance then
        Instance_server.add_listing flat.listings ~directory:flat.directory
          ~owner:flat.owner
          (Descriptor.directory_to_bytes
             (List.map flat.describe (flat.objects ())))
      else if msg.code = Op.map_context then
        ok ~payload:(P_context_spec (Context.spec ~server ~context:ctx)) ()
      else if msg.code = Op.query_name then
        ok
          ~payload:
            (P_descriptor
               (Descriptor.make ~obj_type:Descriptor.Directory
                  ~size:(List.length (flat.objects ()))
                  ~owner:flat.owner flat.directory))
          ()
      else reply Reply.Bad_operation
  | [ name ] when not (Descriptor.fits ~owner:flat.owner ~attrs:[] name) ->
      reply Reply.Illegal_name
  | [ name ] -> (
      match flat.find name with
      | Error code -> reply code
      | Ok found when msg.code <> Op.query_name ->
          flat.handle_name msg name found
      | Ok (Some o) -> ok ~payload:(P_descriptor (flat.describe o)) ()
      | Ok None -> reply Reply.Not_found)
  | _ :: _ :: _ -> reply Reply.Not_found

let flat_contexts_handlers ~valid_context ~lookup ~context ~other ~server =
  {
    valid_context;
    lookup;
    handle_csname =
      (fun ~sender:_ msg _req ctx remaining ->
        flat_reply (context ctx) ~server msg ctx remaining);
    handle_other = (fun ~sender:_ msg -> other msg);
  }

let flat_handlers flat ~other ~server =
  flat_contexts_handlers
    ~valid_context:(fun ctx -> ctx = Context.Well_known.default)
    ~lookup:(fun _ _ -> Stop)
    ~context:(fun _ -> flat)
    ~other ~server

let serve_flat host ~name ~service scope ~other flat =
  let pid =
    Kernel.spawn host ~name (fun self ->
        serve self (flat_handlers flat ~other ~server:(Kernel.self_pid self)))
  in
  Kernel.set_pid host ~service pid scope;
  pid
