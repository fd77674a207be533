(* The invariant checker: what must still be true after a faulty run.

   Three invariants, from the paper's graceful-degradation claim:

   - At-most-once side effects: the kernel's duplicate suppression and
     the client policy of retrying only non-mutating legs mean a marker
     token appended under faults appears exactly once if its operation
     reported success, and at most once if it reported failure.
   - No orphan instances: once every client has finished, no live file
     server still holds an open instance (crashed incarnations lost
     theirs with the crash; restarted ones start empty).
   - Post-heal convergence: after every fault has healed, the given
     names resolve, from every workstation, to a live server process —
     logical bindings re-resolve to restarted successors for free.

   Checks return violations instead of raising, so a benchmark can
   report all of them in one artifact. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Resolver = Vdomains.Resolver
module Scenario = Vworkload.Scenario
module Vmsg = Vnaming.Vmsg

type violation = { invariant : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.invariant v.detail

let to_json violations =
  Vobs.Json.List
    (List.map
       (fun v ->
         Vobs.Json.Obj
           [
             ("invariant", Vobs.Json.String v.invariant);
             ("detail", Vobs.Json.String v.detail);
           ])
       violations)

(* Count non-overlapping occurrences of [token] in [content]. *)
let occurrences ~token content =
  let n = String.length token and len = String.length content in
  if n = 0 then 0
  else begin
    let count = ref 0 and i = ref 0 in
    while !i + n <= len do
      if String.sub content !i n = token then begin
        incr count;
        i := !i + n
      end
      else incr i
    done;
    !count
  end

(* [at_most_once ~tokens content]: [tokens] is the marker client's log —
   each unique token paired with whether its append reported success.
   Success must appear exactly once; failure at most once (the append
   may or may not have landed before the fault hit). *)
let at_most_once ~tokens content =
  List.filter_map
    (fun (token, succeeded) ->
      let n = occurrences ~token content in
      if succeeded && n <> 1 then
        Some
          {
            invariant = "at-most-once";
            detail =
              Fmt.str "token %S reported success but appears %d times" token n;
          }
      else if (not succeeded) && n > 1 then
        Some
          {
            invariant = "at-most-once";
            detail = Fmt.str "token %S (failed op) appears %d times" token n;
          }
      else None)
    tokens

(* [no_orphan_instances servers]: every live file server has released
   all instances once clients are done. *)
let no_orphan_instances servers =
  List.filter_map
    (fun fs ->
      let n = File_server.open_instance_count fs in
      if n = 0 then None
      else
        Some
          {
            invariant = "no-orphan-instances";
            detail =
              Fmt.str "file server %s still holds %d open instance(s)"
                (File_server.name fs) n;
          })
    servers

(* [replica_divergence t ~members ~names] probes every replica member
   DIRECTLY (bypassing balancer and coordinator) with a MapContext for
   each name and requires identical answers: same reply code and, on
   success, same context id. Server pids necessarily differ between
   members, so they are ignored; context ids are inode-derived, and the
   single write coordinator applies every write in the same order to
   identically-initialized members, so ids must match when the replicas
   have converged. Call after the plan has fully healed and any revived
   member has caught up. *)
let replica_divergence (t : Scenario.t) ~members ~names =
  let violations = ref [] in
  (match members with
  | [] | [ _ ] -> ()
  | _ ->
      ignore
        (Scenario.spawn_client t ~ws:0 ~name:"divergence-probe"
           (fun self (_ : Runtime.env) ->
             List.iter
               (fun name ->
                 let probe fs =
                   let msg =
                     Vmsg.request ~name:(Vnaming.Csname.make_req name)
                       Vmsg.Op.map_context
                   in
                   match Kernel.send self (File_server.pid fs) msg with
                   | Error e ->
                       (File_server.name fs, Fmt.str "ipc %a" Kernel.pp_error e)
                   | Ok (reply, _) ->
                       let ctx =
                         match reply.Vmsg.payload with
                         | Vmsg.P_context_spec spec ->
                             Fmt.str " ctx %a" Vnaming.Context.pp_id
                               spec.Vnaming.Context.context
                         | _ -> ""
                       in
                       ( File_server.name fs,
                         Fmt.str "%s%s"
                           (match Vmsg.reply_code reply with
                           | Some code -> Vnaming.Reply.to_string code
                           | None -> "no-reply")
                           ctx )
                 in
                 match List.map probe members with
                 | [] -> ()
                 | (_, first) :: _ as answers ->
                     List.iter
                       (fun (member, answer) ->
                         if answer <> first then
                           violations :=
                             {
                               invariant = "replica-divergence";
                               detail =
                                 Fmt.str "%S: member %s answered %S, expected %S"
                                   name member answer first;
                             }
                             :: !violations)
                       answers)
               names));
      Scenario.run t);
  List.rev !violations

(* [tree_convergence t ~root ~prefix ~names] is the domain-tree
   analogue of [convergence]: after every fault has healed, a COLD
   resolver (empty cache, stale-serving disabled) on every workstation
   must walk the federated tree from [root] and resolve each name to a
   live server, with no stale answers, and every workstation must get
   the same (server, context) answer — a revived mid-tree domain whose
   parent failed to re-stitch its delegation record, or a partitioned
   view of the tree, shows up here as a disagreement or a dead-server
   resolution. *)
let tree_convergence (t : Scenario.t) ~root ~prefix ~names =
  let violations = ref [] in
  let fail ws name reason =
    violations :=
      {
        invariant = "tree-convergence";
        detail = Fmt.str "ws%d: %S %s" ws name reason;
      }
      :: !violations
  in
  let answers : (string, (int * string) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let record name ws answer =
    let l =
      match Hashtbl.find_opt answers name with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace answers name l;
          l
    in
    l := (ws, answer) :: !l
  in
  Array.iteri
    (fun ws (_ : Scenario.workstation) ->
      ignore
        (Scenario.spawn_client t ~ws ~name:(Fmt.str "tree-probe%d" ws)
           (fun self (_ : Runtime.env) ->
             let resolver = Resolver.create ~prefix ~root () in
             List.iter
               (fun name ->
                 match Resolver.resolve resolver self name with
                 | Error e -> fail ws name (Fmt.str "failed: %a" Vio.Verr.pp e)
                 | Ok o ->
                     if o.Resolver.served_stale then
                       fail ws name "served stale post-heal"
                     else begin
                       let spec = o.Resolver.spec in
                       let server = spec.Vnaming.Context.server in
                       if
                         not
                           (Kernel.alive (Kernel.domain_of_self self) server)
                       then fail ws name "resolved to a dead server"
                       else
                         record name ws
                           (Fmt.str "pid %d ctx %a" (Pid.to_int server)
                              Vnaming.Context.pp_id
                              spec.Vnaming.Context.context)
                     end)
               names)))
    Scenario.(t.workstations);
  Scenario.run t;
  (* Cross-workstation agreement over the successful answers. *)
  List.iter
    (fun name ->
      match Hashtbl.find_opt answers name with
      | None -> ()
      | Some l -> (
          match List.sort compare !l with
          | [] -> ()
          | (_, first) :: _ as sorted ->
              List.iter
                (fun (ws, a) ->
                  if a <> first then
                    fail ws name (Fmt.str "resolved to %s, expected %s" a first))
                sorted))
    names;
  List.rev !violations

(* [convergence t ~names] spawns a probe on every workstation resolving
   each name and runs the simulation until the probes finish: each must
   resolve to a live server process. Call it after the fault plan has
   fully healed (a generated plan always has, by its horizon). *)
let convergence (t : Scenario.t) ~names =
  let violations = ref [] in
  let fail ws name reason =
    violations :=
      {
        invariant = "convergence";
        detail = Fmt.str "ws%d: %S %s" ws name reason;
      }
      :: !violations
  in
  Array.iteri
    (fun ws (_ : Scenario.workstation) ->
      ignore
        (Scenario.spawn_client t ~ws ~name:(Fmt.str "probe%d" ws)
           (fun self env ->
             List.iter
               (fun name ->
                 match Runtime.resolve env name with
                 | Error e -> fail ws name (Fmt.str "failed: %a" Vio.Verr.pp e)
                 | Ok spec ->
                     if not (Kernel.alive (Kernel.domain_of_self self)
                               spec.Vnaming.Context.server)
                     then fail ws name "resolved to a dead server")
               names)))
    Scenario.(t.workstations);
  Scenario.run t;
  List.rev !violations
