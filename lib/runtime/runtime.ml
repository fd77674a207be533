(* The standard run-time library (§6): the procedural interface programs
   use for system services, hiding the message interface.

   Every CSname-handling routine goes through one common routing
   routine: if the name starts with '[', the request is sent to the
   workstation's context prefix server (in its default context);
   otherwise it is sent directly to the server implementing the current
   context, with the current context identifier filled into the message.
   "The code that checks for the '[' character is localized in a single
   common routine."

   At most one client-side cache answers for a '[prefix]' name
   ([cache_for]): the host's caching resolver ({!Vdomains.Resolver})
   for the names it handles, else the program's name cache
   ({!Vnaming.Name_cache}) while it is on. Routing consults that cache,
   a successful reply's binding stamp is learned into it, and a reply
   proving its binding stale invalidates it there before the name is
   routed again. Both are off by default: the paper argues against
   client-side name caching (§2.2) precisely because of the consistency
   problem this on-use protocol addresses. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration
open Vnaming

type resilience_stats = {
  mutable retries : int;  (* re-issued attempts *)
  mutable retried_ok : int;  (* operations that succeeded after >= 1 retry *)
  mutable unavailable : int;  (* operations surfaced as [Unavailable] *)
}

(* A client-side cache that can answer for a name. *)
type cache =
  | Uncached
  | Names of Name_cache.t  (* the program's TTL-less name cache *)
  | Resolver of Vdomains.Resolver.t
      (* the host's resolver: an iterative walk of the federated domain
         tree, with TTL/negative/stale caching *)

type env = {
  self : Vmsg.t Kernel.self;
  prefix_server : Pid.t;
  mutable current : Context.spec;
  (* The name [current] was last bound from ([change_context]); the
     retry loop uses it to re-resolve a pinned context whose server
     crashed, so relative names fail over too. *)
  mutable current_name : string option;
  mutable rebinding : bool;
  (* The name cache, and what [cache_for] answers with for the names
     no resolver handles: [Names name_cache] while it is on, [Uncached]
     while it is off. Both caches are held prebuilt, so picking one
     allocates nothing. *)
  mutable name_cache : Name_cache.t;
  mutable names : cache;
  (* [Resolver r] once a resolver is set, [Uncached] otherwise. *)
  mutable resolver : cache;
  (* The resilience policy ([Vio.Resilience]); off ([None]) by default.
     The PRNG drives backoff jitter only, so a seeded run replays the
     exact retry schedule. *)
  mutable resilience : Vio.Resilience.policy option;
  mutable retry_prng : Vsim.Prng.t;
  rstats : resilience_stats;
  (* Where the environment's operations report: (workstation,
     "runtime"). *)
  events : Events.t;
  (* The root context of the operation in progress ([Span.no_ctx]
     between operations): its attempts and a resolver's walks hang
     under it. *)
  mutable root : Vobs.Span.ctx;
}

let engine env = Kernel.engine_of_domain (Kernel.domain_of_self env.self)
let self env = env.self
let current_context env = env.current
let set_current_context env spec =
  env.current <- spec;
  env.current_name <- None

let enable_name_cache env ?capacity flag =
  (match capacity with
  | Some c -> env.name_cache <- Name_cache.create ~capacity:c ()
  | None -> ());
  if flag then env.names <- Names env.name_cache
  else begin
    env.names <- Uncached;
    Name_cache.clear env.name_cache
  end

let name_cache_enabled env =
  match env.names with Names _ -> true | Uncached | Resolver _ -> false

let name_cache env = env.name_cache
let name_cache_stats env = Name_cache.stats env.name_cache

let set_resolver env r = env.resolver <- Resolver r
let clear_resolver env = env.resolver <- Uncached

let set_resilience env ?(policy = Vio.Resilience.default) ~seed () =
  env.resilience <- Some policy;
  env.retry_prng <- Vsim.Prng.create ~seed

let resilience env = env.resilience

let resilience_stats env = env.rstats

(* [make self ~current] builds a program environment: the program is
   passed its current context; the workstation's context prefix server
   is bound via the local service table. *)
let make self ~current =
  match Kernel.get_pid self ~service:Service.Id.context_prefix Service.Local with
  | None -> Error (Vio.Verr.Denied Reply.No_server)
  | Some prefix_server ->
      Ok
        {
          self;
          prefix_server;
          current;
          current_name = None;
          rebinding = false;
          name_cache = Name_cache.create ();
          names = Uncached;
          resolver = Uncached;
          resilience = None;
          retry_prng = Vsim.Prng.create ~seed:1;
          rstats = { retries = 0; retried_ok = 0; unavailable = 0 };
          events = Events.of_self self ~server:"runtime";
          root = Vobs.Span.no_ctx;
        }

(* --- observability ---

   Every named operation reports (when a hub is attached to the domain)
   through the environment's {!Events} reporter: its latency lands in
   a histogram keyed (workstation, "runtime", op), and — when tracing
   is on — it gets one root span, started before the name is routed,
   so a resolver's walk hangs under it too; every request it sends
   carries the root's child context, so server-side hops hang under it.
   One root span covers all retry attempts of an operation; when the
   first route answered from a cache without a query, the root's op
   carries a "[cached]" tag. Cache counters land under (workstation,
   "runtime") with cache-prefixed op names. All bookkeeping: nothing
   here touches simulated time. *)

let outcome_of_result = function
  | Ok _ -> Reply.to_string Reply.Ok
  | Error e -> Vio.Verr.to_string e

(* The resilience retry loop around one named operation. [run] is a
   whole routed attempt (including the stale-retry cascade); on a
   retryable failure it is re-issued after a jittered exponential
   backoff, within the policy's deadline, all under the same obs root
   span (tagged "fault" on the first retry and "retry:n" per attempt).
   Re-running [run] routes afresh, so a crashed server's successor is
   picked up by GetPid re-resolution through the prefix server's
   logical bindings. When the policy gives up, the caller sees a
   bounded [Unavailable] instead of an indefinite hang. *)

let with_resilience env policy ~t0 ~rebind run =
  let rec loop attempt =
    match run () with
    | Ok _ as ok ->
        if attempt > 1 then begin
          env.rstats.retried_ok <- env.rstats.retried_ok + 1;
          Events.count env.events "retry-ok"
        end;
        ok
    | Error e -> (
        let elapsed = Vsim.Engine.now (engine env) -. t0 in
        match
          Vio.Resilience.next_step policy env.retry_prng ~attempt
            ~elapsed_ms:elapsed e
        with
        | Vio.Resilience.Retry_after wait ->
            env.rstats.retries <- env.rstats.retries + 1;
            Events.retry env.events ~root:env.root ~attempt ~wait Vio.Verr.pp e;
            Vsim.Proc.delay (engine env) wait;
            (* A transport failure may mean the current context's
               server died: re-resolve it before routing again. *)
            if Vio.Resilience.rebind_worthy e then rebind env;
            loop (attempt + 1)
        | Vio.Resilience.Give_up ->
            let err = Vio.Resilience.give_up ~attempts:attempt e in
            (match err with
            | Vio.Verr.Unavailable _ ->
                env.rstats.unavailable <- env.rstats.unavailable + 1;
                Events.unavailable env.events
                  ~trace:env.root.Vobs.Span.trace ~attempts:attempt
            | _ -> ());
            Error err)
  in
  loop 1

(* --- the single common routing routine --- *)

(* Which cache answers for [name]: the resolver for the '[prefix]' names
   it handles, else the name cache while it is on, else none. A relative
   name is never cached: its meaning moves with the current context, so
   a string-keyed binding for it would be wrong the moment the program
   changed context. *)
let cache_for env name =
  if String.length name = 0 || name.[0] <> Csname.prefix_open then Uncached
  else
    match env.resolver with
    | Resolver r when Vdomains.Resolver.handles r name -> env.resolver
    | Resolver _ | Names _ | Uncached -> env.names

(* How a route was found: directly, answered from a cache with no
   query, or by a resolver walk. The last two name the cached prefix
   on-use invalidation evicts. *)
type via = Direct | Cached of string | Walked of string

(* Where an attempt goes, or the operation's answer when the resolver
   answered authoritatively that the name does not exist: nothing is
   sent then, since the prefix server would be asked the same tree. *)
type route =
  | Send of { target : Pid.t; req : Csname.req; via : via }
  | Final of Vio.Verr.t

(* The uncached routes: a '[prefix]' name to the workstation's prefix
   server, any other to the current context's server. *)
let prefix_route env req =
  Send { target = env.prefix_server; req; via = Direct }

let uncached_route env req =
  if Csname.starts_with_prefix req then prefix_route env req
  else
    Send
      {
        target = env.current.Context.server;
        req = { req with Csname.context = env.current.Context.context };
        via = Direct;
      }

(* A cached route: straight to the server implementing [spec], which
   resumes interpretation at [index] in [spec]'s context. *)
let resume_at spec req index via =
  Send
    {
      target = spec.Context.server;
      req = { req with Csname.index; context = spec.Context.context };
      via;
    }

(* Route [name] through [cache]: the name cache's deepest cached prefix
   or the resolver's answer when it has one, the uncached route
   otherwise. The cache routes only the name before [upto]: the whole
   name, or its parent for an operation on the name itself, which the
   context binding the last component answers. *)
let route env cache name ~upto =
  let req = Csname.make_req name in
  match cache with
  | Uncached -> uncached_route env req
  | Names c -> (
      match Name_cache.find_below c name upto with
      | Some (key, spec) ->
          Events.count env.events "cache-hit";
          resume_at spec req
            (Csname.skip_separators name (String.length key))
            (Cached key)
      | None ->
          Events.count env.events "cache-miss";
          prefix_route env req)
  | Resolver _ when upto = 0 ->
      (* A bare "[p]": the prefix server's binding itself. *)
      prefix_route env req
  | Resolver r -> (
      let parent = String.sub name 0 upto in
      match Vdomains.Resolver.resolve r env.self ~trace:env.root parent with
      | Ok o ->
          let open Vdomains.Resolver in
          Events.count env.events
            (if o.queries = 0 then "resolver-hit" else "resolver-walk");
          if o.served_stale then Events.count env.events "resolver-stale";
          resume_at o.spec req o.index
            (if o.queries = 0 then Cached o.cache_key else Walked o.cache_key)
      | Error (Vio.Verr.Denied (Reply.Not_found | Reply.Bad_context) as e) ->
          (* The codes the resolver caches as negatives. *)
          Final e
      | Error _ ->
          (* The tree is unreachable, cyclic or too deep: the prefix
             server still gives the operation its authoritative
             answer. *)
          Events.count env.events "resolver-fallback";
          prefix_route env req)

let charge_stub env = Vsim.Proc.delay (engine env) Calibration.client_stub_cpu

(* One attempt's request, hung under the operation's root span. *)
let attach env req =
  Events.child env.events ~trace:env.root.Vobs.Span.trace
    ~span:env.root.Vobs.Span.parent req

(* Failover accounting: when a later resilience attempt routes to a
   different server pid than the one before it — the re-resolution found
   a successor or a surviving replica — tag the operation's root span
   "failover:n" (n counts failovers within this operation) and bump the
   (workstation, "runtime", "failover") counter. Route changes inside
   the stale-cache cascade are not failovers; only cross-attempt changes
   count. *)
let note_failover env ~last_target ~failovers = function
  | Send { target; _ } ->
      (match !last_target with
      | Some p when not (Pid.equal p target) ->
          incr failovers;
          Events.failover env.events ~root:env.root ~n:!failovers
            ~pid:(Pid.to_int target)
      | Some _ | None -> ());
      last_target := Some target
  | Final _ -> ()

(* Learn a binding a server stamped into a successful reply, into the
   cache that answers for [name]. *)
let learn_from_reply env name { Vmsg.upto; spec } =
  if upto > 0 && upto <= String.length name then
    match cache_for env name with
    | Uncached -> ()
    | Names c ->
        (match Name_cache.learn c (String.sub name 0 upto) spec with
        | Some _evicted -> Events.count env.events "cache-evict"
        | None -> ());
        Events.count env.events "cache-learn"
    | Resolver r ->
        Vdomains.Resolver.learn r
          ~now:(Vsim.Engine.now (engine env))
          (String.sub name 0 upto) spec

(* A failure that suggests a stale cached binding. *)
let stale_signal = function
  | Vio.Verr.Ipc _ | Vio.Verr.Denied (Reply.Bad_context | Reply.Not_found) ->
      true
  | _ -> false

let is_ipc = function Vio.Verr.Ipc _ -> true | _ -> false

(* Run [attempt] along routes for [name] through [cache]. A stale signal
   on a binding [cache] supplied invalidates it there, and the name is
   routed through [cache] again: the name cache then lands on the
   next-deepest cached prefix or on the prefix server, and the resolver
   walks afresh. [retried] bounds the one extra pass each cache allows;
   the two never apply to one name, since one cache answers for it.
   - The resolver re-walks once. A re-derived binding that fails too
     means the tree's answer is wrong (a dead leaf server), not stale,
     so the operation drops to the uncached route of last resort.
   - The name cache allows one uncached pass after an IPC failure with
     no cached binding in play: the prefix server resolves a logical
     binding afresh at each use, so going through it again can reach a
     service that re-registered under a new pid.
   If every attempt fails, the first error is returned. *)
let rec with_stale_retry env cache name ~upto attempt r ~retried ~first_err =
  match r with
  | Final e -> Error (Option.value first_err ~default:e)
  | Send { target; req; via } -> (
      match attempt target req with
      | Ok _ as ok -> ok
      | Error e -> (
          let first_err =
            match first_err with None -> Some e | Some _ -> first_err
          in
          match (via, cache) with
          | (Cached key | Walked key), Resolver res when stale_signal e ->
              ignore (Vdomains.Resolver.invalidate res key);
              Events.count env.events "cache-stale";
              let next = if retried then Uncached else cache in
              with_stale_retry env cache name ~upto attempt
                (route env next name ~upto) ~retried:true ~first_err
          | (Cached key | Walked key), Names c when stale_signal e ->
              ignore (Name_cache.invalidate c key);
              Events.count env.events "cache-stale";
              with_stale_retry env cache name ~upto attempt
                (route env cache name ~upto) ~retried ~first_err
          | _, Names _ when is_ipc e && not retried ->
              with_stale_retry env cache name ~upto attempt
                (route env Uncached name ~upto) ~retried:true ~first_err
          | _ -> Error (Option.value first_err ~default:e)))

(* One named operation's attempts: the stale-retry cascade from the
   first route, inside the resilience retry loop when a policy is set.
   The first resilience attempt reuses the route already taken (whose
   cache metrics are counted); later ones route afresh so re-resolution
   can land on a successor server. *)
let run_routed env cache name ~upto ~t0 ~first ~rebind attempt =
  match env.resilience with
  | None ->
      with_stale_retry env cache name ~upto attempt first ~retried:false
        ~first_err:None
  | Some policy ->
      let first_route = ref (Some first) in
      let last_target = ref None in
      let failovers = ref 0 in
      with_resilience env policy ~t0 ~rebind (fun () ->
          let r =
            match !first_route with
            | Some r ->
                first_route := None;
                r
            | None -> route env cache name ~upto
          in
          note_failover env ~last_target ~failovers r;
          with_stale_retry env cache name ~upto attempt r ~retried:false
            ~first_err:None)

(* The one routine every named operation goes through, Open included.
   It charges the client stub once, however many attempts follow, then
   opens the operation's root span before it routes the name, so a
   resolver's walk hangs under it. It sends the request along the route,
   with the stale-cache and resilience retries, and reports the
   operation done: the root reads "[cached]" when the first route made
   no query. Last it restores [outer], the enclosing operation's root
   (a rebind runs an operation inside another's retry loop). *)
let rec transact_name env ~code ?payload name =
  charge_stub env;
  let op = Vmsg.Op.to_string code in
  let t0 = Vsim.Engine.now (engine env) in
  let outer = env.root in
  let cache = cache_for env name in
  let upto =
    if Vmsg.Op.acts_on_name code then Csname.last_component name
    else String.length name
  in
  env.root <-
    Events.op_start env.events ~op ~context:env.current.Context.context;
  let first = route env cache name ~upto in
  let attempt target req =
    let msg = Vmsg.request ~name:(attach env req) ?payload code in
    (* A resilience-enabled client stamps its absolute operation
       deadline so a loaded server's admission control can drop the
       request rather than queue it past the point of usefulness. *)
    let msg =
      match env.resilience with
      | Some p -> Vmsg.with_deadline msg (t0 +. p.Vio.Resilience.deadline_ms)
      | None -> msg
    in
    match Vio.Client.transact env.self ~server:target msg with
    | Ok (m, _) as ok ->
        (match m.Vmsg.binding with
        | Some b -> learn_from_reply env name b
        | None -> ());
        ok
    | Error _ as e -> e
  in
  let result =
    run_routed env cache name ~upto ~t0 ~first ~rebind:rebind_current attempt
  in
  Events.op_done env.events ~op ~root:env.root ~started:t0
    ~cached:(match first with Send { via = Cached _; _ } -> true | _ -> false)
    (outcome_of_result result);
  env.root <- outer;
  result

(* Map a name that denotes a context to its (server-pid, context-id).
   With the cache enabled, the binding is learned from the stamp the
   answering server put into the reply. *)
and resolve env name =
  match transact_name env ~code:Vmsg.Op.map_context name with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_context_spec spec -> Ok spec
      | _ -> Error (Vio.Verr.Protocol "MapContext reply carried no context"))

(* On a transport-level retry, re-resolve the current context by the
   name it was last bound from: if its server crashed, the prefix
   server's logical bindings (refreshed via GetPid) point at the live
   successor, so relative names recover without a manual rebind. The
   probe is one-shot — the policy is disabled for its duration so it
   cannot recurse into the retry loop. *)
and rebind_current env =
  match env.current_name with
  | None -> ()
  | Some name ->
      if not env.rebinding then begin
        env.rebinding <- true;
        let saved = env.resilience in
        env.resilience <- None;
        (match resolve env name with
        | Ok spec when spec <> env.current ->
            env.current <- spec;
            Events.count env.events "rebind"
        | Ok _ | Error _ -> ());
        env.resilience <- saved;
        env.rebinding <- false
      end

(* --- naming operations --- *)

(* The analogue of Unix chdir (§6). *)
let change_context env name =
  match resolve env name with
  | Error e -> Error e
  | Ok spec ->
      env.current <- spec;
      env.current_name <- Some name;
      Ok spec

(* Determine a printable CSname for the current context (§6 inverse
   mapping): ask the prefix server first, then the implementing server
   for its local path. *)
let current_context_name env =
  charge_stub env;
  let ask target msg =
    match Vio.Client.transact env.self ~server:target msg with
    | Error e -> Error e
    | Ok ({ Vmsg.payload = Vmsg.P_name n; _ }, _) -> Ok n
    | Ok _ -> Error (Vio.Verr.Protocol "inverse map reply")
  in
  let via_prefix =
    ask env.prefix_server
      (Vmsg.request ~payload:(Vmsg.P_context_spec env.current)
         Vmsg.Op.inverse_map_context)
  in
  let via_server () =
    ask env.current.Context.server
      (Vmsg.request
         ~payload:(Vmsg.P_context_id env.current.Context.context)
         Vmsg.Op.inverse_map_context)
  in
  match via_prefix with
  | Ok prefix_name -> (
      (* Append the server-local path when available. *)
      match via_server () with
      | Ok "/" | Error _ -> Ok prefix_name
      | Ok path -> Ok (prefix_name ^ path))
  | Error _ -> via_server ()

(* --- file-like access (the V I/O protocol over the naming layer) --- *)

let open_ env ~mode name =
  match
    transact_name env ~code:Vmsg.Op.open_instance
      ~payload:(Vmsg.P_open { mode }) name
  with
  | Error e -> Error e
  | Ok ({ Vmsg.payload = Vmsg.P_instance info; _ }, server) ->
      Ok { Vio.Client.server; info }
  | Ok _ -> Error (Vio.Verr.Protocol "Open reply carried no instance")

let with_instance env ~mode name f =
  match open_ env ~mode name with
  | Error e -> Error e
  | Ok instance ->
      let result = f instance in
      (* Release regardless; surface the first error. *)
      let released = Vio.Client.release env.self instance in
      (match (result, released) with
      | (Error _ as e), _ -> e
      | Ok v, Ok () -> Ok v
      | Ok _, (Error _ as e) -> e)

let read_file env name =
  with_instance env ~mode:Vmsg.Read name (fun instance ->
      Vio.Client.read_all env.self instance)

let write_file env name data =
  with_instance env ~mode:Vmsg.Write name (fun instance ->
      Vio.Client.write_all env.self instance data)

let append_file env name data =
  with_instance env ~mode:Vmsg.Append name (fun instance ->
      Vio.Client.write_all env.self instance data)

(* Read the context directory of [name] (§5.6): open the context as a
   file of description records. *)
let list_directory env name =
  with_instance env ~mode:Vmsg.Directory_listing name (fun instance ->
      Vio.Client.read_directory env.self instance)

(* --- object operations --- *)

let expect_ok = function
  | Error e -> Error e
  | Ok ((_ : Vmsg.t), (_ : Pid.t)) -> Ok ()

let query env name =
  match transact_name env ~code:Vmsg.Op.query_name name with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_descriptor d -> Ok d
      | _ -> Error (Vio.Verr.Protocol "QueryName reply carried no descriptor"))

let modify env name descriptor =
  expect_ok
    (transact_name env ~code:Vmsg.Op.modify_name
       ~payload:(Vmsg.P_descriptor descriptor) name)

let create env ?(directory = false) name =
  expect_ok
    (transact_name env ~code:Vmsg.Op.create_object
       ~payload:(Vmsg.P_create { directory }) name)

let remove env name = expect_ok (transact_name env ~code:Vmsg.Op.remove_object name)

let rename env name ~new_name =
  expect_ok
    (transact_name env ~code:Vmsg.Op.rename_object
       ~payload:(Vmsg.P_name new_name) name)

(* Copy a file by name, possibly across servers: read through one
   context, write through another. *)
let copy env ~src ~dst =
  match read_file env src with
  | Error e -> Error e
  | Ok data -> write_file env dst data

(* --- prefix management --- *)

let add_prefix env prefix target =
  let payload =
    match target with
    | `Static spec -> Vmsg.P_context_spec spec
    | `Logical (service, context) -> Vmsg.P_logical_spec { service; context }
  in
  charge_stub env;
  let req = Csname.make_req prefix in
  let msg = Vmsg.request ~name:req ~payload Vmsg.Op.add_context_name in
  expect_ok (Vio.Client.transact env.self ~server:env.prefix_server msg)

let delete_prefix env prefix =
  charge_stub env;
  let req = Csname.make_req prefix in
  let msg = Vmsg.request ~name:req Vmsg.Op.delete_context_name in
  expect_ok (Vio.Client.transact env.self ~server:env.prefix_server msg)

(* Define a cross-server pointer: a name in one (storage) context that
   points at a context on another server (the curved arrow of
   Figure 4). *)
let link env name ~target =
  expect_ok
    (transact_name env ~code:Vmsg.Op.add_context_name
       ~payload:(Vmsg.P_context_spec target) name)
