(** The standard name-mapping procedure, the generic CSNH server
    skeleton (paper §5.4), and the one handler of flat contexts.

    Any server implementing one or more name spaces conforms to this
    procedure: interpret components of the uninterpreted part of the
    name left-to-right in a running CurrentContext; when a component
    resolves to a context implemented by another server, rewrite the
    standard fields (name index, context id) and forward the request —
    which the server need not otherwise understand — to that server. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

(** What one name component means inside a given context. *)
type lookup_result =
  | Descend of Context.id  (** a context on this same server *)
  | Cross of Context.spec  (** a pointer to a context on another server *)
  | Delegate of Context.spec
      (** crossed as [Cross]: a delegation to a child domain server *)
  | Stop  (** not a context here: a leaf object, or absent *)

type outcome =
  | Local of Context.id * string list
      (** interpretation ends here: the final context and the components
          context resolution did not consume (possibly none) *)
  | Forward of Context.spec * Csname.req
      (** crossed into another server's context: forward the request,
          rewritten with the new index and context id *)
  | Fail of Reply.code

(** Run the §5.4 procedure over a request, following the name to its
    end: a [Cross] at the last component forwards too. Rejects
    '[prefix]' names (only prefix servers parse those — the client
    run-time routes them) and invalid starting contexts. *)
val walk :
  valid_context:(Context.id -> bool) ->
  lookup:(Context.id -> string -> lookup_result) ->
  Csname.req ->
  outcome

(** What a specific server plugs into the generic loop. *)
type handlers = {
  valid_context : Context.id -> bool;
  lookup : Context.id -> string -> lookup_result;
      (** one component in one context; the loop charges
          [component_lookup_cpu] around each call *)
  handle_csname :
    sender:Pid.t -> Vmsg.t -> Csname.req -> Context.id -> string list -> Vmsg.t;
      (** a CSname request whose interpretation ended on this server:
          final context, unconsumed components; returns the reply *)
  handle_other : sender:Pid.t -> Vmsg.t -> Vmsg.t option;
      (** non-CSname requests; [None] means not implemented *)
}

(** Counters a CSNH server keeps about its own processing; the harness
    uses [specific_ms] to separate protocol cost from server-specific
    cost (the paper's Open figures exclude the latter). *)
type server_stats = {
  requests : Vsim.Stats.Counter.t;
  forwards : Vsim.Stats.Counter.t;
  specific_ms : Vsim.Stats.Series.t;
}

val make_stats : string -> server_stats

(** [reply_closing self r ~sender ~span ~index_to reply] replies to
    [sender], first closing this hop's [span] (0: none opened) with the
    reply's code and [index_to] ({!Events.finish}). For servers that
    open their hop's span themselves. *)
val reply_closing :
  Vmsg.t Kernel.self ->
  Events.t ->
  sender:Pid.t ->
  span:int ->
  index_to:int ->
  Vmsg.t ->
  unit

(** Run a CSNH server forever: answer each request, or forward it along
    per §5.4. An operation on a name itself ({!Vmsg.Op.acts_on_name})
    ends its walk at the last component, whatever it names, so the
    context binding the name answers it. A resolve step (a MapContext
    carrying {!Vmsg.P_resolve_step}) is walked and charged alike but
    answered where it would be forwarded: a {!Vmsg.P_referral} on
    crossing a [Delegate], else a terminal [P_context_spec], either
    stamped with the binding record; components left that name no
    context here answer [Not_found]. [stats], if given, records every
    request; a server given none records nothing. *)
val serve : Vmsg.t Kernel.self -> ?stats:server_stats -> handlers -> unit

(** {1 Flat contexts}

    A flat context is one context whose every object is named by a
    single component (§2.2). Every flat context answers the same way:

    - on the context itself, Open in any mode opens the directory
      listing in the server's instance table, MapContext returns the
      server and the context, QueryName the context's directory record;
      any other request gets [Bad_operation];
    - QueryName on one name returns the record the listing holds for
      it, so the listing agrees with per-name queries (§5.6);
    - a name whose record, with the context's owner, would not fit
      ({!Descriptor.fits}) gets [Illegal_name] for every operation;
    - a name of two or more components gets [Not_found].

    A server supplies its objects, how one name is found and described,
    and its other one-name operations. None of this charges the clock. *)

type 'o flat = {
  directory : string;  (** the context's own name in its record *)
  owner : string;  (** the owner in the context's record *)
  objects : unit -> 'o list;  (** in listing order *)
  describe : 'o -> Descriptor.t;
  find : string -> ('o option, Reply.code) result;
      (** one name's object, if any; [Error code] refuses the name for
          every operation (an ill-formed name, say) *)
  listings : Instance_server.listings;
      (** where the context's listing opens: the server's instance
          table *)
  handle_name : Vmsg.t -> string -> 'o option -> Vmsg.t;
      (** every request on one name but QueryName, given what [find]
          found *)
}

(** [listable d]: {!Descriptor.fits} on record [d]'s name, owner and
    attributes. A flat server refuses a name with [Illegal_name] where
    it would make or change an object whose record is not listable. *)
val listable : Descriptor.t -> bool

(** [flat_reply flat ~server msg ctx remaining] answers a CSname request
    whose interpretation ended in flat context [ctx] on [server], with
    [remaining] the uninterpreted components. *)
val flat_reply :
  'o flat -> server:Pid.t -> Vmsg.t -> Context.id -> string list -> Vmsg.t

(** The handlers of a server whose every context is flat: the walk runs
    [valid_context] and [lookup], and [context ctx] describes the
    context [ctx] it ended in; [other] answers the requests that are not
    CSname requests ([None]: not implemented). *)
val flat_contexts_handlers :
  valid_context:(Context.id -> bool) ->
  lookup:(Context.id -> string -> lookup_result) ->
  context:(Context.id -> 'o flat) ->
  other:(Vmsg.t -> Vmsg.t option) ->
  server:Pid.t ->
  handlers

(** The handlers of a server whose one context is the flat context
    {!Context.Well_known.default}; [other] as above. *)
val flat_handlers :
  'o flat -> other:(Vmsg.t -> Vmsg.t option) -> server:Pid.t -> handlers

(** Spawn a flat-context server on the host under [name], serving
    {!flat_handlers} forever, and register it as [service] in the
    scope; its pid. *)
val serve_flat :
  Vmsg.t Kernel.host ->
  name:string ->
  service:int ->
  Vkernel.Service.scope ->
  other:(Vmsg.t -> Vmsg.t option) ->
  'o flat ->
  Pid.t
