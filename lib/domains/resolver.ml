(* The per-host caching resolver role.

   Where the ordinary client run-time hands a '[prefix]'-absolute name
   to the workstation's context prefix server (one level of delegation,
   resolved recursively by request forwarding), a resolver walks the
   federated domain tree *iteratively*: it queries the root domain
   server with a marked MapContext ({!Domain_server.P_resolve_step}),
   follows each referral it gets back — delegation records riding the
   standard {!Vmsg.binding} stamp — and stops at the terminal binding
   that crosses the domain/object boundary. Every referral and every
   terminal answer is cached under its name prefix with a TTL, so a
   warm resolver answers without touching the network and a lukewarm
   one resumes its walk at the deepest cached referral rather than at
   the root.

   Authoritative failures ([Not_found]/[Bad_context]) are cached too
   (negative caching, under the full queried name with a shorter TTL):
   left-to-right interpretation means a missing prefix dooms its whole
   subtree, so repeated misses collapse to one authoritative query per
   negative TTL. And when a refresh walk cannot reach the tree — the
   authoritative server crashed or is partitioned away — an expired
   terminal binding within the stale window is served anyway, tagged
   [stale-serve] in the observability stream: availability over
   freshness, bounded by the window.

   A walk keeps the set of (server, index) steps it has visited; a
   delegation cycle (a misconfigured tree whose referrals loop without
   consuming name components) is detected on the first repeat and
   surfaced as a protocol error rather than an infinite walk. The
   [max_steps] bound backstops even index-advancing pathologies.

   The resolver is a per-host role, not a process: clients on the host
   share its cache and run walks on their own fibers, so IPC is charged
   to the operation that needed the resolution. All cache bookkeeping
   is off the simulated clock. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

type outcome = {
  spec : Context.spec;  (** continue interpretation here... *)
  index : int;  (** ...at this index into the name *)
  queries : int;  (** authoritative queries this resolution made *)
  served_stale : bool;  (** answered from an expired entry *)
  cache_key : string;  (** the prefix the answer is cached under *)
}

type stats = {
  walks : int;
  cache_answers : int;  (** resolved with zero queries *)
  neg_answers : int;  (** failed from a fresh negative entry, zero queries *)
  stale_serves : int;
  queries : int;
  referrals : int;
  loops : int;  (** delegation cycles detected *)
  failures : int;
}

type t = {
  prefix : string;  (** the '[prefix]' this resolver is authoritative for *)
  root : Context.spec;  (** the root domain server of the tree *)
  cache : Name_cache.t;
  ttl_ms : float;
  neg_ttl_ms : float;
  stale_window_ms : float;  (** 0 disables stale-serving *)
  max_steps : int;
  mutable s_walks : int;
  mutable s_cache_answers : int;
  mutable s_neg_answers : int;
  mutable s_stale_serves : int;
  mutable s_queries : int;
  mutable s_referrals : int;
  mutable s_loops : int;
  mutable s_failures : int;
  (* Where walks report, and the host it reports for. *)
  mutable events : Events.t option;
  mutable events_host : string;
}

let default_ttl_ms = 5_000.0
let default_neg_ttl_ms = 1_000.0

let create ?(capacity = Name_cache.default_capacity) ?(ttl_ms = default_ttl_ms)
    ?(neg_ttl_ms = default_neg_ttl_ms) ?(stale_window_ms = 0.0) ?(max_steps = 32)
    ~prefix ~root () =
  if ttl_ms <= 0.0 then invalid_arg "Resolver.create: ttl_ms <= 0";
  if neg_ttl_ms <= 0.0 then invalid_arg "Resolver.create: neg_ttl_ms <= 0";
  if stale_window_ms < 0.0 then invalid_arg "Resolver.create: stale_window_ms < 0";
  if max_steps < 1 then invalid_arg "Resolver.create: max_steps < 1";
  {
    prefix;
    root;
    cache = Name_cache.create ~capacity ();
    ttl_ms;
    neg_ttl_ms;
    stale_window_ms;
    max_steps;
    s_walks = 0;
    s_cache_answers = 0;
    s_neg_answers = 0;
    s_stale_serves = 0;
    s_queries = 0;
    s_referrals = 0;
    s_loops = 0;
    s_failures = 0;
    events = None;
    events_host = "";
  }

let prefix t = t.prefix
let root t = t.root

let cache t = t.cache
let cache_stats t = Name_cache.stats t.cache

let stats t =
  {
    walks = t.s_walks;
    cache_answers = t.s_cache_answers;
    neg_answers = t.s_neg_answers;
    stale_serves = t.s_stale_serves;
    queries = t.s_queries;
    referrals = t.s_referrals;
    loops = t.s_loops;
    failures = t.s_failures;
  }

(* Does this resolver answer for [name]? Exactly the names opening with
   its '[prefix]'. *)
let handles t name =
  let p = String.length t.prefix in
  String.length name >= p + 2
  && name.[0] = Csname.prefix_open
  && name.[p + 1] = Csname.prefix_close
  && String.sub name 1 p = t.prefix

let invalidate t key = Name_cache.invalidate t.cache key

(* Feed a terminal binding learned out-of-band (a reply stamp from the
   object server itself) into the cache, under the resolver's TTL. *)
let learn t ~now key spec =
  ignore (Name_cache.learn_at t.cache ~now ~ttl_ms:t.ttl_ms key (Name_cache.Bound spec))

(* --- the iterative walk --- *)

let negative_code = function
  | Reply.Not_found | Reply.Bad_context -> true
  | _ -> false

(* The reporter for walks run by [self]: counts land under (its host,
   "resolver"). *)
let reporter t self =
  match t.events with
  | Some r when String.equal (Kernel.self_host_name self) t.events_host -> r
  | Some _ | None ->
      let r = Events.of_self self ~server:"resolver" in
      t.events <- Some r;
      t.events_host <- Kernel.self_host_name self;
      r

(* [resolve t self name] maps [name]'s domain part to the (server,
   context) that interprets what follows it. [trace], the client
   operation's root context, parents each per-level ResolveStep span
   under the root: it is reissued at every step's send, so each step's
   wait is its own hop. *)
let resolve t self ?(trace = Vobs.Span.no_ctx) name =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
  let now () = Vsim.Engine.now engine in
  let r = reporter t self in
  let trace_id = trace.Vobs.Span.trace in
  t.s_walks <- t.s_walks + 1;
  Events.count r "walk";
  if not (handles t name) then begin
    t.s_failures <- t.s_failures + 1;
    Error (Vio.Verr.Denied Reply.Illegal_name)
  end
  else begin
    (* The stale-serving candidate: the deepest expired terminal
       binding, usable if the authoritative walk cannot be refreshed
       and the entry is still inside the stale window. *)
    let stale_candidate = ref None in
    let outcome_of_hit ~queries ~served_stale (h : Name_cache.hit) spec =
      {
        spec;
        index = Csname.skip_separators name (String.length h.Name_cache.hkey);
        queries;
        served_stale;
        cache_key = h.Name_cache.hkey;
      }
    in
    let serve_stale ~queries e =
      match !stale_candidate with
      | Some ((h : Name_cache.hit), spec)
        when t.stale_window_ms > 0.0
             && (match h.Name_cache.hexpires_at with
                | Some at -> now () <= at +. t.stale_window_ms
                | None -> false) ->
          t.s_stale_serves <- t.s_stale_serves + 1;
          Events.stale_serve r ~trace:trace_id ~key:h.Name_cache.hkey
            Vio.Verr.pp e;
          Ok (outcome_of_hit ~queries ~served_stale:true h spec)
      | _ ->
          t.s_failures <- t.s_failures + 1;
          Error e
    in
    (* One authoritative step: ask [cur] to interpret from [index]. *)
    let rec walk cur index visited queries =
      if queries >= t.max_steps then begin
        t.s_loops <- t.s_loops + 1;
        Events.count r "loop";
        serve_stale ~queries
          (Vio.Verr.Protocol
             (Fmt.str "resolver: %d steps without an answer (delegation loop?)"
                t.max_steps))
      end
      else if List.mem (cur.Context.server, index) visited then begin
        t.s_loops <- t.s_loops + 1;
        Events.cycle r ~trace:trace_id
          ~pid:(Pid.to_int cur.Context.server)
          ~index;
        serve_stale ~queries (Vio.Verr.Protocol "resolver: delegation cycle")
      end
      else begin
        let visited = (cur.Context.server, index) :: visited in
        t.s_queries <- t.s_queries + 1;
        Events.count r "query";
        let trace =
          if Vobs.Span.is_traced trace then { trace with sent_at = now () }
          else trace
        in
        let req =
          Csname.make_req ~index ~context:cur.Context.context ~trace name
        in
        let msg =
          Vmsg.request ~name:req ~payload:Domain_server.P_resolve_step
            Vmsg.Op.map_context
        in
        match Vio.Client.transact self ~server:cur.Context.server msg with
        | Error (Vio.Verr.Ipc _ as e) -> serve_stale ~queries:(queries + 1) e
        | Error e ->
            (match e with
            | Vio.Verr.Denied code when negative_code code ->
                Events.count r "neg-learn";
                ignore
                  (Name_cache.learn_at t.cache ~now:(now ())
                     ~ttl_ms:t.neg_ttl_ms name (Name_cache.Negative code))
            | _ -> ());
            t.s_failures <- t.s_failures + 1;
            Error e
        | Ok (reply, _) -> (
            match (reply.Vmsg.payload, reply.Vmsg.binding) with
            | Domain_server.P_referral, Some { Vmsg.upto; spec = child } ->
                t.s_referrals <- t.s_referrals + 1;
                let key = String.sub name 0 upto in
                Events.delegation r ~trace:trace_id ~key
                  ~pid:(Pid.to_int child.Context.server);
                ignore
                  (Name_cache.learn_at t.cache ~now:(now ()) ~ttl_ms:t.ttl_ms
                     key (Name_cache.Delegation child));
                walk child upto visited (queries + 1)
            | Vmsg.P_context_spec spec, binding ->
                let upto =
                  match binding with
                  | Some b -> b.Vmsg.upto
                  | None -> String.length name
                in
                let key = String.sub name 0 upto in
                ignore
                  (Name_cache.learn_at t.cache ~now:(now ()) ~ttl_ms:t.ttl_ms
                     key (Name_cache.Bound spec));
                Ok
                  {
                    spec;
                    index = Csname.skip_separators name upto;
                    queries = queries + 1;
                    served_stale = false;
                    cache_key = key;
                  }
            | _ ->
                t.s_failures <- t.s_failures + 1;
                Error (Vio.Verr.Protocol "resolver: malformed step reply"))
      end
    in
    (* Consult the cache: a fresh terminal answers outright; a fresh
       negative fails outright; a fresh referral resumes the walk below
       the root; an expired terminal becomes the stale candidate for a
       walk from the root. *)
    match Name_cache.find_at t.cache ~now:(now ()) name with
    | Some ({ Name_cache.hvalue = Bound spec; hfresh = true; _ } as h) ->
        t.s_cache_answers <- t.s_cache_answers + 1;
        Events.count r "hit";
        Ok (outcome_of_hit ~queries:0 ~served_stale:false h spec)
    | Some { Name_cache.hvalue = Negative code; hfresh = true; _ } ->
        t.s_neg_answers <- t.s_neg_answers + 1;
        Events.count r "neg-hit";
        Error (Vio.Verr.Denied code)
    | Some ({ Name_cache.hvalue = Delegation spec; hfresh = true; hkey; _ }) ->
        Events.count r "resume";
        walk spec (Csname.skip_separators name (String.length hkey)) [] 0
    | Some ({ Name_cache.hvalue = Bound spec; hfresh = false; _ } as h) ->
        stale_candidate := Some (h, spec);
        Events.count r "refresh";
        walk t.root
          (Csname.skip_separators name (String.length t.prefix + 2))
          [] 0
    | Some _ | None ->
        Events.count r "miss";
        walk t.root
          (Csname.skip_separators name (String.length t.prefix + 2))
          [] 0
  end
