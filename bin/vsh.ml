(* vsh — the V executive, as a command interpreter over a simulated
   V domain.

   Commands are read from a script file (or a built-in demo) and
   executed by a client process on a workstation of a freshly built
   standard installation. Every command goes through the same run-time
   library a V program would use, so the executive exercises exactly
   the uniform naming machinery the paper describes.

   Usage:
     dune exec bin/vsh.exe                      # run the built-in demo
     dune exec bin/vsh.exe -- --script FILE     # run a command script
     dune exec bin/vsh.exe -- --list-commands   # show the command set *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Domain_server = Vdomains.Domain_server
module Resolver = Vdomains.Resolver
open Vnaming

(* An interactive federated name tree: the chain of domain servers, the
   per-host resolver wired into the run-time, and the TTLs it was
   created with (the resolver does not expose them). *)
type domains_state = {
  chain : Domain_server.t array;
  resolver : Resolver.t;
  d_ttl_ms : float;
  d_neg_ttl_ms : float;
  d_stale_window_ms : float;
}

type shell = {
  env : Runtime.env;
  scenario : Scenario.t;
  mutable failed : int;
  mutable injector : Vfault.Injector.t option;
  mutable replicas : Vservices.Replica.t option;
  mutable domains : domains_state option;
  mutable admission_on : bool;
}

let pr fmt = Fmt.pr (fmt ^^ "@.")

let report_error what e =
  pr "vsh: %s: %a" what Vio.Verr.pp e;
  `Failed

let run_or_report sh what = function
  | Ok () -> ()
  | Error e ->
      (match report_error what e with `Failed -> ());
      sh.failed <- sh.failed + 1

(* --- commands --- *)

let cmd_ls sh args =
  let name = match args with [] -> "" | n :: _ -> n in
  match Runtime.list_directory sh.env name with
  | Error e -> Error e
  | Ok records ->
      List.iter (fun r -> pr "  %a" Descriptor.pp r) records;
      Ok ()

let cmd_cat sh = function
  | [ name ] ->
      Result.map
        (fun data -> pr "%s" (Bytes.to_string data))
        (Runtime.read_file sh.env name)
  | _ -> Error (Vio.Verr.Protocol "usage: cat NAME")

let cmd_write sh = function
  | name :: words ->
      Runtime.write_file sh.env name (Bytes.of_string (String.concat " " words))
  | _ -> Error (Vio.Verr.Protocol "usage: write NAME TEXT...")

let cmd_append sh = function
  | name :: words ->
      Runtime.append_file sh.env name (Bytes.of_string (String.concat " " words))
  | _ -> Error (Vio.Verr.Protocol "usage: append NAME TEXT...")

let cmd_cp sh = function
  | [ src; dst ] -> Runtime.copy sh.env ~src ~dst
  | _ -> Error (Vio.Verr.Protocol "usage: cp SRC DST")

let cmd_tree sh args =
  let root = match args with [] -> "" | r :: _ -> r in
  Vruntime.Walker.pp_tree ~max_depth:6 sh.env ~root Fmt.stdout ();
  Ok ()

let cmd_find sh = function
  | [ root; needle ] ->
      let hits =
        Vruntime.Walker.find sh.env ~root (fun v ->
            let name = v.Vruntime.Walker.v_descriptor.Descriptor.name in
            let n = String.length needle and h = String.length name in
            let rec has i = i + n <= h && (String.sub name i n = needle || has (i + 1)) in
            n = 0 || has 0)
      in
      List.iter (fun name -> pr "  %s" name) hits;
      pr "(%d match(es))" (List.length hits);
      Ok ()
  | _ -> Error (Vio.Verr.Protocol "usage: find ROOT SUBSTRING")

let cmd_du sh args =
  let root = match args with [] -> "" | r :: _ -> r in
  pr "%d bytes under %s" (Vruntime.Walker.disk_usage sh.env ~root)
    (if root = "" then "(current context)" else root);
  Ok ()

let cmd_rm sh = function
  | [ name ] -> Runtime.remove sh.env name
  | _ -> Error (Vio.Verr.Protocol "usage: rm NAME")

let cmd_mkdir sh = function
  | [ name ] -> Runtime.create sh.env ~directory:true name
  | _ -> Error (Vio.Verr.Protocol "usage: mkdir NAME")

let cmd_mv sh = function
  | [ old_name; new_name ] -> Runtime.rename sh.env old_name ~new_name
  | _ -> Error (Vio.Verr.Protocol "usage: mv OLD NEW(relative)")

let cmd_query sh = function
  | [ name ] ->
      Result.map (fun d -> pr "  %a" Descriptor.pp d) (Runtime.query sh.env name)
  | _ -> Error (Vio.Verr.Protocol "usage: query NAME")

let cmd_chmod sh = function
  | [ flag; name ] when flag = "+w" || flag = "-w" -> (
      match Runtime.query sh.env name with
      | Error e -> Error e
      | Ok d ->
          Runtime.modify sh.env name { d with Descriptor.writable = flag = "+w" })
  | _ -> Error (Vio.Verr.Protocol "usage: chmod +w|-w NAME")

let cmd_cd sh = function
  | [ name ] ->
      Result.map
        (fun (spec : Context.spec) ->
          pr "current context: %a" Context.pp_spec spec)
        (Runtime.change_context sh.env name)
  | _ -> Error (Vio.Verr.Protocol "usage: cd NAME")

let cmd_pwd sh _args =
  Result.map (fun name -> pr "%s" name) (Runtime.current_context_name sh.env)

let cmd_resolve sh = function
  | [ name ] ->
      Result.map
        (fun (spec : Context.spec) -> pr "%s -> %a" name Context.pp_spec spec)
        (Runtime.resolve sh.env name)
  | _ -> Error (Vio.Verr.Protocol "usage: resolve NAME")

let cmd_prefixes sh _args =
  let ws = Scenario.workstation sh.scenario 0 in
  List.iter
    (fun (name, target) -> pr "  [%s] -> %a" name Prefix_server.pp_target target)
    (Prefix_server.bindings ws.Scenario.ws_prefix);
  Ok ()

let cmd_bind sh = function
  | [ prefix; target ] -> (
      (* target is another name that must denote a context. *)
      match Runtime.resolve sh.env target with
      | Error e -> Error e
      | Ok spec -> Runtime.add_prefix sh.env prefix (`Static spec))
  | _ -> Error (Vio.Verr.Protocol "usage: bind PREFIX TARGET-NAME")

let cmd_unbind sh = function
  | [ prefix ] -> Runtime.delete_prefix sh.env prefix
  | _ -> Error (Vio.Verr.Protocol "usage: unbind PREFIX")

let cmd_link sh = function
  | [ name; target ] -> (
      match Runtime.resolve sh.env target with
      | Error e -> Error e
      | Ok spec -> Runtime.link sh.env name ~target:spec)
  | _ -> Error (Vio.Verr.Protocol "usage: link NAME TARGET-NAME")

let cmd_mail sh = function
  | "send" :: box :: words ->
      Runtime.append_file sh.env ("[mail]" ^ box)
        (Bytes.of_string ("From: vsh\n" ^ String.concat " " words))
  | [ "read"; box ] ->
      Result.map
        (fun data -> pr "%s" (Bytes.to_string data))
        (Runtime.read_file sh.env ("[mail]" ^ box))
  | _ -> Error (Vio.Verr.Protocol "usage: mail send BOX TEXT... | mail read BOX")

let cmd_print sh = function
  | name :: words ->
      Runtime.write_file sh.env ("[printer]" ^ name)
        (Bytes.of_string (String.concat " " words))
  | _ -> Error (Vio.Verr.Protocol "usage: print JOB TEXT...")

let cmd_tell sh = function
  | term :: words ->
      Runtime.append_file sh.env ("[terminals]" ^ term)
        (Bytes.of_string (String.concat " " words))
  | _ -> Error (Vio.Verr.Protocol "usage: tell TERMINAL TEXT...")

let cmd_time sh _args =
  Result.map
    (fun t -> pr "simulated time: %.2f ms" t)
    (Vservices.Time_server.get_time (Runtime.self sh.env))

let cmd_crash sh = function
  | [ which ] -> (
      match int_of_string_opt which with
      | Some i when i < Array.length sh.scenario.Scenario.file_servers ->
          K.crash_host
            (Option.get
               (K.host_of_addr sh.scenario.Scenario.domain (Scenario.fs_addr i)));
          pr "crashed file server %d's host" i;
          Ok ()
      | _ -> Error (Vio.Verr.Protocol "usage: crash FS-INDEX"))
  | _ -> Error (Vio.Verr.Protocol "usage: crash FS-INDEX")

(* A replica-set member comes back through [Replica.revive] (catch up
   on the group write log, then re-enroll), or the set would keep
   balancing reads onto the dead pid; any other file server restarts
   over its surviving disk. Either way the successor takes the dead
   incarnation's place in the scenario. *)
let restart_file_server sh addr =
  Scenario.restart_file_server ?replicas:sh.replicas sh.scenario addr

let cmd_restart sh = function
  | [ which ] -> (
      match int_of_string_opt which with
      | Some i when i < Array.length sh.scenario.Scenario.file_servers ->
          let addr = Scenario.fs_addr i in
          K.restart_host
            (Option.get (K.host_of_addr sh.scenario.Scenario.domain addr));
          restart_file_server sh addr;
          let fs = sh.scenario.Scenario.file_servers.(i) in
          let member =
            match sh.replicas with
            | Some r -> Option.is_some (Vservices.Replica.find_member r addr)
            | None -> false
          in
          pr "restarted host; %s (pid %d) %s" (File_server.name fs)
            (Vkernel.Pid.to_int (File_server.pid fs))
            (if member then "is catching up before rejoining the replica set"
             else "serves its surviving disk");
          Ok ()
      | _ -> Error (Vio.Verr.Protocol "usage: restart FS-INDEX"))
  | _ -> Error (Vio.Verr.Protocol "usage: restart FS-INDEX")

let cmd_netstat sh _args =
  let c = Vnet.Ethernet.counters sh.scenario.Scenario.net in
  pr "frames sent %d, delivered %d, dropped %d; %d bytes on the wire"
    c.Vnet.Ethernet.frames_sent c.Vnet.Ethernet.frames_delivered
    c.Vnet.Ethernet.frames_dropped c.Vnet.Ethernet.bytes_sent;
  pr "message transactions: %d" (K.ipc_transaction_count sh.scenario.Scenario.domain);
  Ok ()

(* Fabric introspection: what the installation is wired as, and what
   each segment has carried. On the shared medium there are no links to
   list — netstat's wire-wide counters are the whole story. *)
let cmd_net sh args =
  let net = sh.scenario.Scenario.net in
  let topo = Vnet.Ethernet.topology net in
  match args with
  | [] | [ "topo" ] ->
      pr "fabric: %a" Vnet.Topology.pp topo;
      (match topo with
      | Vnet.Topology.Shared_medium -> ()
      | Vnet.Topology.Switched { fan_in } ->
          let edges = Hashtbl.create 8 in
          List.iter
            (fun a ->
              let e = Vnet.Topology.edge_of ~fan_in a in
              Hashtbl.replace edges e (1 + Option.value ~default:0 (Hashtbl.find_opt edges e)))
            (Vnet.Ethernet.hosts net);
          Hashtbl.fold (fun e n acc -> (e, n) :: acc) edges []
          |> List.sort compare
          |> List.iter (fun (e, n) -> pr "  edge%d: %d host(s)" e n);
          match Vnet.Ethernet.queue_capacity net with
          | Some cap -> pr "  per-port output queue bound: %d frames" cap
          | None -> ());
      Ok ()
  | [ "stats" ] ->
      (match topo with
      | Vnet.Topology.Shared_medium ->
          pr "shared medium: one wire, no per-segment state (see netstat)"
      | Vnet.Topology.Switched _ -> (
          Vnet.Ethernet.export_link_metrics net;
          match Vnet.Ethernet.link_stats net with
          | [] -> pr "switched fabric: no segment has carried a frame yet"
          | stats ->
              pr "%-22s %5s %8s %6s %6s %9s %6s" "segment" "up" "frames"
                "drops" "queue" "busy ms" "util%";
              let now = Vsim.Engine.now sh.scenario.Scenario.engine in
              List.iter
                (fun s ->
                  pr "%-22s %5s %8d %6d %3d/%-3d %9.1f %5.1f%%"
                    s.Vnet.Ethernet.ls_label
                    (if s.Vnet.Ethernet.ls_up then "yes" else "NO")
                    s.Vnet.Ethernet.ls_frames s.Vnet.Ethernet.ls_drops
                    s.Vnet.Ethernet.ls_queued s.Vnet.Ethernet.ls_queue_peak
                    s.Vnet.Ethernet.ls_busy_ms
                    (if now > 0.0 then s.Vnet.Ethernet.ls_busy_ms /. now *. 100.0
                     else 0.0))
                stats));
      Ok ()
  | _ -> Error (Vio.Verr.Protocol "usage: net [topo|stats]")

let cmd_echo _sh args =
  pr "%s" (String.concat " " args);
  Ok ()

(* Dump the span tree of the most recent traced request — by default the
   last naming operation the shell itself issued (the `trace` command
   creates no trace of its own). *)
let cmd_trace sh args =
  let hub = sh.scenario.Scenario.obs in
  let id =
    match args with
    | [] -> (
        match Vobs.Hub.last_trace hub with
        | Some id -> Ok id
        | None -> Error "no traced request yet")
    | [ n ] -> (
        match int_of_string_opt n with
        | Some id -> Ok id
        | None -> Error (Fmt.str "bad trace id %S" n))
    | _ -> Error "usage: trace [ID]"
  in
  match id with
  | Error e -> Error (Vio.Verr.Protocol e)
  | Ok id -> (
      match Vobs.Hub.trace_spans hub id with
      | [] -> Error (Vio.Verr.Protocol (Fmt.str "no spans for trace %d" id))
      | spans ->
          pr "trace %d (%d spans):" id (List.length spans);
          Vobs.Export.pp_timeline Fmt.stdout spans;
          Ok ())

let cmd_cache sh args =
  let stats () =
    let s = Runtime.name_cache_stats sh.env in
    pr "name cache: %s, %d/%d entries"
      (if Runtime.name_cache_enabled sh.env then "on" else "off")
      s.Name_cache.size
      (Name_cache.capacity (Runtime.name_cache sh.env));
    pr "  hits %d  misses %d  stale %d  evictions %d  insertions %d"
      s.Name_cache.hits s.Name_cache.misses s.Name_cache.stale
      s.Name_cache.evictions s.Name_cache.insertions;
    List.iter
      (fun (key, spec) ->
        pr "  %-24s -> pid %d ctx %d" key
          (Vkernel.Pid.to_int spec.Context.server)
          spec.Context.context)
      (Name_cache.to_list (Runtime.name_cache sh.env))
  in
  match args with
  | [ "on" ] ->
      Runtime.enable_name_cache sh.env true;
      pr "name cache enabled";
      Ok ()
  | [ "off" ] ->
      Runtime.enable_name_cache sh.env false;
      pr "name cache disabled";
      Ok ()
  | [] | [ "stats" ] ->
      stats ();
      Ok ()
  | _ -> Error (Vio.Verr.Protocol "usage: cache [on|off|stats]")

(* Scheduler introspection: how much event-queue work this run has done
   so far. The events/s figure reads the process CPU clock (the one
   non-simulated number vsh prints); everything else is deterministic. *)
let cmd_engine sh args =
  let eng = sh.scenario.Scenario.engine in
  match args with
  | [] | [ "stats" ] ->
      pr "engine: timer-wheel backend";
      pr "  events executed %d  pending %d  timers cancelled %d"
        (Vsim.Engine.executed eng)
        (Vsim.Engine.pending eng)
        (Vsim.Engine.cancelled_timers eng);
      pr "  %.0f events/s over this run" (Vsim.Engine.events_per_sec eng);
      Ok ()
  | _ -> Error (Vio.Verr.Protocol "usage: engine [stats]")

(* Fault injection from the shell: generate a seeded plan against the
   installation's address layout, shift it to start "now" (plan times
   are relative to generation time zero), and install it with a revive
   hook that reboots a crashed file server as a successor process —
   the same recovery story E9 measures. *)
let cmd_fault sh args =
  let t = sh.scenario in
  let fs_addrs =
    List.init (Array.length t.Scenario.file_servers) Scenario.fs_addr
  in
  let make_plan seed duration_ms =
    (* Short interactive horizons: start faulting early and pack several
       episodes in, where a soak benchmark would use the defaults. *)
    Vfault.Plan.generate ~seed ~duration_ms ~warmup_ms:(duration_ms /. 20.0)
      ~mean_gap_ms:(duration_ms /. 8.0) ~crashable:fs_addrs
      ~partitionable:
        (List.init (Array.length t.Scenario.workstations) Scenario.ws_addr
        @ [ Scenario.printer_addr; Scenario.mail_addr ])
      ~slowable:(fs_addrs @ [ Scenario.printer_addr ])
      ()
  in
  let parse_seed s = int_of_string_opt s in
  let parse_duration = function
    | [] -> Some 30_000.0
    | [ d ] -> float_of_string_opt d
    | _ -> None
  in
  match args with
  | "plan" :: seed :: rest -> (
      match (parse_seed seed, parse_duration rest) with
      | Some seed, Some duration_ms ->
          pr "%a" Vfault.Plan.pp (make_plan seed duration_ms);
          Ok ()
      | _ -> Error (Vio.Verr.Protocol "usage: fault plan SEED [DURATION-MS]"))
  | "inject" :: seed :: rest -> (
      match (parse_seed seed, parse_duration rest) with
      | Some seed, Some duration_ms ->
          let now = Vsim.Engine.now t.Scenario.engine in
          let plan = make_plan seed duration_ms in
          let shifted =
            Vfault.Plan.of_events ~seed
              (List.map
                 (fun e -> { e with Vfault.Plan.at = now +. e.Vfault.Plan.at })
                 plan.Vfault.Plan.events)
          in
          sh.injector <-
            Some
              (Vfault.Injector.install ~on_restart:(restart_file_server sh)
                 t shifted);
          pr "installed fault plan (seed %d): %d events over %.0f ms" seed
            (List.length shifted.Vfault.Plan.events)
            duration_ms;
          Ok ()
      | _ -> Error (Vio.Verr.Protocol "usage: fault inject SEED [DURATION-MS]"))
  | [] | [ "status" ] ->
      pr "%a" Vnet.Ethernet.pp t.Scenario.net;
      (match sh.injector with
      | None -> pr "no fault plan installed"
      | Some inj -> pr "%a" Vfault.Injector.pp inj);
      Ok ()
  | _ ->
      Error
        (Vio.Verr.Protocol
           "usage: fault plan SEED [DURATION-MS] | fault inject SEED \
            [DURATION-MS] | fault status")

(* Replicated storage from the shell: join the first N file servers into
   a replica set under one logical service id and bind [rstore] to it on
   every workstation — reads balance across members, CSNH writes fan out
   from the coordinating prefix server. The same machinery E10
   benchmarks, made interactive. *)
let cmd_replicas sh args =
  let t = sh.scenario in
  let module Replica = Vservices.Replica in
  let fs_count = Array.length t.Scenario.file_servers in
  match args with
  | "on" :: rest -> (
      let parse = function
        | [] -> Some fs_count
        | [ n ] -> int_of_string_opt n
        | _ -> None
      in
      match (sh.replicas, parse rest) with
      | Some _, _ ->
          Error
            (Vio.Verr.Protocol
               "a replica set is already installed (replicas off first)")
      | None, None -> Error (Vio.Verr.Protocol "usage: replicas on [N]")
      | None, Some n when n < 1 || n > fs_count ->
          Error (Vio.Verr.Protocol (Fmt.str "N must be 1..%d" fs_count))
      | None, Some _
        when Array.exists
               (fun ws ->
                 List.mem_assoc "rstore"
                   (Prefix_server.bindings ws.Scenario.ws_prefix))
               t.Scenario.workstations ->
          Error
            (Vio.Verr.Protocol "[rstore] is already bound (unbind it first)")
      | None, Some n ->
          sh.replicas <- Some (Scenario.install_replicas t ~factor:n);
          pr "replica set installed: %d member(s), [rstore] bound on every \
              workstation" n;
          Ok ())
  | [ "off" ] -> (
      match sh.replicas with
      | None -> Error (Vio.Verr.Protocol "no replica set installed")
      | Some r ->
          Replica.uninstall r;
          Array.iter
            (fun ws ->
              ignore (Prefix_server.delete_binding ws.Scenario.ws_prefix "rstore"))
            t.Scenario.workstations;
          sh.replicas <- None;
          pr "replica set removed; [rstore] unbound";
          Ok ())
  | [] | [ "status" ] ->
      (match sh.replicas with
      | None -> pr "no replica set installed"
      | Some r ->
          pr "replica set: service %s (group %d), factor %d"
            (Vkernel.Service.Id.to_string (Replica.service r))
            (Replica.group r) (Replica.factor r);
          List.iter
            (fun (addr, fs) ->
              pr "  host %d: %s (pid %d)" addr (File_server.name fs)
                (Vkernel.Pid.to_int (File_server.pid fs)))
            (Replica.members r));
      Ok ()
  | _ ->
      Error
        (Vio.Verr.Protocol
           "usage: replicas on [N] | replicas off | replicas status")

(* Federated name domains from the shell: boot a chain of domain
   servers under "[dom]" — each delegating one named sub-context to the
   next, the last binding "leaf" into fs0's root — and wire a caching
   resolver into the run-time, so every "[dom]..." name the shell
   touches resolves iteratively, referral by referral; "domains off"
   unwires the resolver and destroys the chain's servers. The same
   machinery E11 benchmarks, made interactive. *)
let domains_prefix = "dom"

let cmd_domains sh args =
  let t = sh.scenario in
  let with_tree f =
    match sh.domains with
    | Some st -> f st
    | None -> Error (Vio.Verr.Protocol "no domain tree installed (domains on first)")
  in
  match args with
  | "on" :: rest -> (
      let depth = match rest with [] -> Some 3 | [ d ] -> int_of_string_opt d | _ -> None in
      match (sh.domains, depth) with
      | Some _, _ ->
          Error (Vio.Verr.Protocol "a domain tree is already installed (domains off first)")
      | None, Some depth when depth >= 1 ->
          let chain = Scenario.domain_chain t ~depth in
          let d_ttl_ms = Resolver.default_ttl_ms
          and d_neg_ttl_ms = Resolver.default_neg_ttl_ms
          and d_stale_window_ms = 10_000.0 in
          let resolver =
            Resolver.create ~ttl_ms:d_ttl_ms ~neg_ttl_ms:d_neg_ttl_ms
              ~stale_window_ms:d_stale_window_ms ~prefix:domains_prefix
              ~root:(Domain_server.spec chain.(0) ())
              ()
          in
          Runtime.set_resolver sh.env resolver;
          sh.domains <-
            Some { chain; resolver; d_ttl_ms; d_neg_ttl_ms; d_stale_window_ms };
          pr "domain tree up: %d server(s), [%s] names resolve iteratively \
              (leaf -> fs0)"
            depth domains_prefix;
          Ok ()
      | None, _ -> Error (Vio.Verr.Protocol "usage: domains on [DEPTH>=1]"))
  | [ "off" ] ->
      with_tree (fun st ->
          Runtime.clear_resolver sh.env;
          Scenario.remove_domain_chain t st.chain;
          sh.domains <- None;
          pr "resolver unwired, %d domain server(s) destroyed; [%s] names no \
              longer resolve"
            (Array.length st.chain) domains_prefix;
          Ok ())
  | [ "tree" ] ->
      with_tree (fun st ->
          let server_of spec =
            Array.to_seq st.chain
            |> Seq.find (fun ds ->
                   Vkernel.Pid.to_int (Domain_server.pid ds)
                   = Vkernel.Pid.to_int spec.Context.server)
          in
          let rec print_node ds ctx indent =
            List.iter
              (fun (component, entry) ->
                match entry with
                | Domain_server.Subcontext id ->
                    pr "%s%s/ (subcontext %d)" indent component id;
                    print_node ds id (indent ^ "  ")
                | Domain_server.Child spec -> (
                    match server_of spec with
                    | Some child ->
                        pr "%s%s/ -> domain %s (pid %d)" indent component
                          (Domain_server.name child)
                          (Vkernel.Pid.to_int spec.Context.server);
                        print_node child Domain_server.apex (indent ^ "  ")
                    | None ->
                        pr "%s%s/ -> foreign domain pid %d" indent component
                          (Vkernel.Pid.to_int spec.Context.server))
                | Domain_server.Bound spec ->
                    pr "%s%s -> pid %d ctx %d (object server)" indent component
                      (Vkernel.Pid.to_int spec.Context.server)
                      spec.Context.context)
              (Domain_server.entries ds ~ctx ())
          in
          pr "[%s] root = domain %s (pid %d)" domains_prefix
            (Domain_server.name st.chain.(0))
            (Vkernel.Pid.to_int (Domain_server.pid st.chain.(0)));
          print_node st.chain.(0) Domain_server.apex "  ";
          Ok ())
  | [ "resolve"; name ] ->
      with_tree (fun st ->
          match Resolver.resolve st.resolver (Runtime.self sh.env) name with
          | Error e -> Error e
          | Ok o ->
              pr "%s -> pid %d ctx %d at index %d (%d query(ies)%s)" name
                (Vkernel.Pid.to_int o.Resolver.spec.Context.server)
                o.Resolver.spec.Context.context o.Resolver.index
                o.Resolver.queries
                (if o.Resolver.served_stale then ", served stale"
                 else if o.Resolver.queries = 0 then ", from cache"
                 else "");
              Ok ())
  | [ "ttl" ] ->
      with_tree (fun st ->
          pr "resolver TTLs: positive %.0f ms, negative %.0f ms, stale window \
              %.0f ms"
            st.d_ttl_ms st.d_neg_ttl_ms st.d_stale_window_ms;
          let s = Resolver.stats st.resolver in
          pr "  walks %d  cache answers %d  negative answers %d  stale serves \
              %d  queries %d  referrals %d  loops %d  failures %d"
            s.Resolver.walks s.Resolver.cache_answers s.Resolver.neg_answers
            s.Resolver.stale_serves s.Resolver.queries s.Resolver.referrals
            s.Resolver.loops s.Resolver.failures;
          let now = Vsim.Engine.now t.Scenario.engine in
          List.iter
            (fun (key, value, expires) ->
              pr "  %-28s %a%s" key Name_cache.pp_value value
                (match expires with
                | None -> "  (no ttl)"
                | Some at when at >= now -> Fmt.str "  expires in %.0f ms" (at -. now)
                | Some at -> Fmt.str "  expired %.0f ms ago" (now -. at)))
            (Name_cache.dump (Resolver.cache st.resolver));
          Ok ())
  | _ ->
      Error
        (Vio.Verr.Protocol
           "usage: domains on [DEPTH] | domains off | domains tree | domains \
            resolve NAME | domains ttl")

(* Aligned-column rendering for the metrics tables: first column
   left-aligned, the rest right-aligned, widths fitted to content so
   the output is stable and diffable across runs. *)
let print_rows ~header rows =
  let all = header :: rows in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init (List.length header) width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Fmt.str "%-*s" w cell else Fmt.str "%*s" w cell)
         row)
  in
  pr "%s" (render header);
  List.iter (fun row -> pr "%s" (render row)) rows

(* Overload protection from the shell: install the calibrated admission
   policies on every server of the installation — file servers shed
   against a disk-page budget, prefix and domain servers against a
   name-lookup budget — and read back the admitted/shed/queue-depth
   counters. The kernel's admit/shed counters also land in `metrics`
   under (host, kernel, admit|shed); `admission status` additionally
   samples per-server queue depths as gauges so they show there too. *)
let admission_targets sh =
  let t = sh.scenario in
  let fs =
    Array.to_list t.Scenario.file_servers
    |> List.map (fun f -> (File_server.name f, `Fs f))
  in
  let ws =
    Array.to_list t.Scenario.workstations
    |> List.map (fun w ->
           (w.Scenario.ws_name ^ "-prefix", `Prefix w.Scenario.ws_prefix))
  in
  let ds =
    match sh.domains with
    | None -> []
    | Some st ->
        Array.to_list st.chain
        |> List.map (fun d -> (Domain_server.name d, `Domain d))
  in
  fs @ ws @ ds

let target_pid = function
  | `Fs f -> File_server.pid f
  | `Prefix p -> Prefix_server.pid p
  | `Domain d -> Domain_server.pid d

let cmd_admission sh args =
  let t = sh.scenario in
  let d = t.Scenario.domain in
  let module Admission = Vservices.Admission in
  match args with
  | [ "on" ] ->
      List.iter
        (fun (_, tgt) ->
          match tgt with
          | `Fs f -> File_server.enable_admission f d ()
          | `Prefix p -> Admission.protect_prefix_server d p
          | `Domain ds -> Domain_server.enable_admission ds d ())
        (admission_targets sh);
      sh.admission_on <- true;
      pr "admission control on: file, prefix and domain servers protected";
      Ok ()
  | [ "off" ] ->
      List.iter
        (fun (_, tgt) ->
          match tgt with
          | `Fs f -> File_server.disable_admission f d
          | `Prefix p -> Admission.uninstall d (Prefix_server.pid p)
          | `Domain ds -> Domain_server.disable_admission ds d)
        (admission_targets sh);
      sh.admission_on <- false;
      pr "admission control off";
      Ok ()
  | [] | [ "status" ] ->
      pr "admission control %s" (if sh.admission_on then "on" else "off");
      if sh.admission_on then begin
        let m = Vobs.Hub.metrics t.Scenario.obs in
        print_rows
          ~header:[ "server"; "pid"; "queue"; "admitted"; "shed" ]
          (List.map
             (fun (label, tgt) ->
               let pid = target_pid tgt in
               let depth = Admission.queue_depth d pid in
               let admitted, shed = Admission.counters d pid in
               Vobs.Metrics.set_gauge m ~host:label ~server:"admission"
                 ~op:"queue-depth" (float_of_int depth);
               [
                 label;
                 string_of_int (Vkernel.Pid.to_int pid);
                 string_of_int depth;
                 string_of_int admitted;
                 string_of_int shed;
               ])
             (admission_targets sh))
      end;
      Ok ()
  | _ -> Error (Vio.Verr.Protocol "usage: admission on | off | status")

(* Row shapes shared by `metrics` and `top`, so the two views stay
   column-compatible. *)
let hist_header = [ "histogram"; "n"; "mean"; "p50"; "p95"; "p99"; "max" ]

let hist_row name h =
  let module H = Vobs.Histogram in
  [
    name;
    string_of_int (H.count h);
    Fmt.str "%.3f" (H.mean h);
    Fmt.str "%.3f" (H.quantile h 0.5);
    Fmt.str "%.3f" (H.quantile h 0.95);
    Fmt.str "%.3f" (H.quantile h 0.99);
    Fmt.str "%.3f" (H.max_ h);
  ]

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let take n l = List.filteri (fun i _ -> i < n) l

(* Counters, gauges and histograms as stable tables: rows sorted by
   (host, server, op) — the registry guarantees the order — histograms
   carrying their quantile columns so a latency regression is visible
   without the JSON dump. With hundreds of keys the full dump is
   unreadable, hence [FILTER] (substring over "host/server/op") and
   [--top N] (sort by count/value, keep the N hottest). *)
let cmd_metrics sh args =
  let hub = sh.scenario.Scenario.obs in
  let m = Vobs.Hub.metrics hub in
  let key (k : Vobs.Metrics.key) = Fmt.str "%s/%s/%s" k.host k.server k.op in
  let usage = "usage: metrics [FILTER] [--top N] | metrics json | metrics prom" in
  let rec parse filter top = function
    | [] -> Ok (filter, top)
    | "--top" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> parse filter (Some n) rest
        | _ -> Error (Vio.Verr.Protocol usage))
    | s :: rest when filter = None && s <> "--top" -> parse (Some s) top rest
    | _ -> Error (Vio.Verr.Protocol usage)
  in
  match args with
  | [ "json" ] ->
      pr "%s" (Vobs.Json.to_string (Vobs.Metrics.to_json m));
      Ok ()
  | [ "prom" ] ->
      print_string (Vobs.Export.prometheus hub);
      Ok ()
  | args -> (
      match parse None None args with
      | Error e -> Error e
      | Ok (filter, top) ->
          let keep name =
            match filter with
            | None -> true
            | Some f -> contains_substring name f
          in
          let select weight rows =
            let rows = List.filter (fun (name, _) -> keep name) rows in
            match top with
            | None -> rows
            | Some n ->
                List.stable_sort
                  (fun (_, a) (_, b) -> compare (weight b) (weight a))
                  rows
                |> take n
          in
          (match
             select Fun.id
               (List.map (fun (k, v) -> (key k, v)) (Vobs.Metrics.counters m))
           with
          | [] -> ()
          | counters ->
              print_rows ~header:[ "counter"; "value" ]
                (List.map
                   (fun (name, v) -> [ name; string_of_int v ])
                   counters));
          (match
             select Fun.id
               (List.map (fun (k, v) -> (key k, v)) (Vobs.Metrics.gauges m))
           with
          | [] -> ()
          | gauges ->
              pr "";
              print_rows ~header:[ "gauge"; "value" ]
                (List.map (fun (name, v) -> [ name; Fmt.str "%.3f" v ]) gauges));
          (match
             select Vobs.Histogram.count
               (List.map
                  (fun (k, h) -> (key k, h))
                  (Vobs.Metrics.histograms m))
           with
          | [] -> ()
          | histograms ->
              pr "";
              print_rows ~header:hist_header
                (List.map (fun (name, h) -> hist_row name h) histograms));
          Ok ())

(* The live view at scale: the N hottest leaf instruments plus the
   time-series sparklines — one screen that says where the load and the
   latency are right now. *)
let cmd_top sh args =
  let hub = sh.scenario.Scenario.obs in
  let n =
    match args with
    | [] -> Some 10
    | [ n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Some n
        | _ -> None)
    | _ -> None
  in
  match n with
  | None -> Error (Vio.Verr.Protocol "usage: top [N]")
  | Some n ->
      let m = Vobs.Hub.metrics hub in
      let key (k : Vobs.Metrics.key) = Fmt.str "%s/%s/%s" k.host k.server k.op in
      let counter_rows =
        List.map (fun (k, v) -> (key k, v)) (Vobs.Metrics.counters m)
      and hist_rows =
        List.map (fun (k, h) -> (key k, h)) (Vobs.Metrics.histograms m)
      in
      let hottest weight rows =
        List.stable_sort (fun (_, a) (_, b) -> compare (weight b) (weight a)) rows
        |> take n
      in
      (match hottest Fun.id counter_rows with
      | [] -> pr "(no counters yet)"
      | rows ->
          print_rows ~header:[ "hottest"; "count" ]
            (List.map (fun (name, v) -> [ name; string_of_int v ]) rows));
      (match hottest Vobs.Histogram.count hist_rows with
      | [] -> ()
      | rows ->
          pr "";
          print_rows ~header:hist_header
            (List.map (fun (name, h) -> hist_row name h) rows));
      (match Vobs.Hub.timeseries hub with
      | None -> ()
      | Some ts -> (
          let series =
            List.map
              (fun (name, kind) ->
                let last =
                  match List.rev (Vobs.Timeseries.points ts name) with
                  | (_, v) :: _ -> v
                  | [] -> 0.0
                in
                (name, kind, last))
              (Vobs.Timeseries.names ts)
            |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a)
            |> take n
          in
          match series with
          | [] -> ()
          | series ->
              pr "";
              print_rows
                ~header:[ "series"; "kind"; "last"; "trend" ]
                (List.map
                   (fun (name, kind, last) ->
                     [
                       name;
                       Vobs.Timeseries.kind_to_string kind;
                       Fmt.str "%.3f" last;
                       Vobs.Timeseries.sparkline ts name;
                     ])
                   series)));
      Ok ()

(* Scale telemetry from the shell: attach a time-series store, sample
   1-in-N heads, arm the kernel pump and group the metrics store by the
   kernel's topology mapping. Everything detaches cleanly with
   `telemetry off`. *)
let cmd_telemetry sh args =
  let t = sh.scenario in
  let hub = t.Scenario.obs in
  let d = t.Scenario.domain in
  let enable every =
    Vobs.Hub.set_timeseries hub
      (Some (Vobs.Timeseries.create ~bucket_ms:100.0 ()));
    Vobs.Hub.set_head_sampling hub ~every ~seed:47;
    K.enable_telemetry d ~interval_ms:50.0;
    pr "telemetry on: rollups + time series attached, tracing 1-in-%d" every;
    Ok ()
  in
  match args with
  | [ "on" ] -> enable 1
  | [ "on"; every ] -> (
      match int_of_string_opt every with
      | Some every when every >= 1 -> enable every
      | _ -> Error (Vio.Verr.Protocol "usage: telemetry on [EVERY]"))
  | [ "off" ] ->
      Vobs.Hub.set_timeseries hub None;
      Vobs.Hub.set_head_sampling hub ~every:1 ~seed:47;
      K.disable_telemetry d;
      pr "telemetry off";
      Ok ()
  | [] | [ "status" ] ->
      Fmt.pr "%a%!" Vobs.Export.pp_telemetry_status hub;
      Ok ()
  | _ -> Error (Vio.Verr.Protocol "usage: telemetry on [EVERY] | off | status")

(* The flight recorder from the shell: newest events (oldest first, so
   the narrative reads downward), dropped-count trailer included. *)
let cmd_events sh args =
  let log = Vobs.Hub.events sh.scenario.Scenario.obs in
  match args with
  | [] ->
      pr "%a" (Vobs.Eventlog.pp ~limit:20) log;
      Ok ()
  | [ n ] -> (
      match int_of_string_opt n with
      | Some limit when limit > 0 ->
          pr "%a" (Vobs.Eventlog.pp ~limit) log;
          Ok ()
      | _ -> Error (Vio.Verr.Protocol "usage: events [N]"))
  | _ -> Error (Vio.Verr.Protocol "usage: events [N]")

let cmd_slo sh _args =
  match Vobs.Hub.slo sh.scenario.Scenario.obs with
  | None ->
      pr "no SLO engine attached";
      Ok ()
  | Some slo ->
      pr "%a" Vobs.Slo.pp_summary (Vobs.Slo.summary slo);
      Ok ()

(* Toggle the recorder or dump the whole flight — events, spans, SLO
   summary and metrics — as one JSON document. *)
let cmd_record sh args =
  let hub = sh.scenario.Scenario.obs in
  let log = Vobs.Hub.events hub in
  match args with
  | [ "on" ] ->
      Vobs.Eventlog.set_enabled log true;
      pr "flight recorder on";
      Ok ()
  | [ "off" ] ->
      Vobs.Eventlog.set_enabled log false;
      pr "flight recorder off";
      Ok ()
  | [] | [ "status" ] ->
      pr "flight recorder %s: %d event(s) held, %d dropped, %d span(s) evicted"
        (if Vobs.Eventlog.enabled log then "on" else "off")
        (Vobs.Eventlog.count log) (Vobs.Eventlog.dropped log)
        (Vobs.Hub.spans_dropped hub);
      Ok ()
  | "dump" :: rest -> (
      let file = match rest with [] -> "vsh-flight.json" | f :: _ -> f in
      let json = Vobs.Export.flight_to_json ~reason:"manual" hub in
      match
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (Vobs.Json.to_string json);
            output_char oc '\n')
      with
      | () ->
          pr "flight dumped to %s" file;
          Ok ()
      | exception Sys_error msg -> Error (Vio.Verr.Protocol msg))
  | _ -> Error (Vio.Verr.Protocol "usage: record [on|off|status] | record dump [FILE]")

let commands :
    (string * string * (shell -> string list -> (unit, Vio.Verr.t) result)) list =
  [
    ("ls", "[NAME] — list a context directory", cmd_ls);
    ("cat", "NAME — print a file", cmd_cat);
    ("write", "NAME TEXT... — (over)write a file", cmd_write);
    ("append", "NAME TEXT... — append to a file-like object", cmd_append);
    ("cp", "SRC DST — copy (possibly across servers)", cmd_cp);
    ("tree", "[NAME] — recursive context listing", cmd_tree);
    ("find", "ROOT SUBSTRING — search names recursively", cmd_find);
    ("du", "[NAME] — total file bytes under a context", cmd_du);
    ("rm", "NAME — remove object and name atomically", cmd_rm);
    ("mkdir", "NAME — create a directory (context)", cmd_mkdir);
    ("mv", "OLD NEW — rename within a server", cmd_mv);
    ("query", "NAME — uniform object description", cmd_query);
    ("chmod", "+w|-w NAME — modify the description", cmd_chmod);
    ("cd", "NAME — change the current context", cmd_cd);
    ("pwd", "— name of the current context (inverse map)", cmd_pwd);
    ("resolve", "NAME — map a context name to (pid, ctx)", cmd_resolve);
    ("prefixes", "— show this user's prefix bindings", cmd_prefixes);
    ("bind", "PREFIX TARGET — define a prefix", cmd_bind);
    ("unbind", "PREFIX — remove a prefix", cmd_unbind);
    ("link", "NAME TARGET — cross-server context pointer", cmd_link);
    ("mail", "send BOX TEXT... | read BOX", cmd_mail);
    ("print", "JOB TEXT... — spool a printer job", cmd_print);
    ("tell", "TERMINAL TEXT... — write a terminal line", cmd_tell);
    ("time", "— ask the time service", cmd_time);
    ("crash", "FS-INDEX — crash a file server host", cmd_crash);
    ("restart", "FS-INDEX — restart host + server over its disk", cmd_restart);
    ("netstat", "— wire and transaction counters", cmd_netstat);
    ("net", "[topo|stats] — fabric topology and per-segment counters", cmd_net);
    ("engine", "[stats] — event-queue scheduler statistics", cmd_engine);
    ("fault", "plan|inject SEED [MS] | status — seeded fault injection", cmd_fault);
    ("replicas", "on [N] | off | status — replicated [rstore]", cmd_replicas);
    ("domains", "on [DEPTH] | off | tree | resolve NAME | ttl — federated name domains", cmd_domains);
    ("trace", "[ID] — span tree of the last (or given) traced request", cmd_trace);
    ("cache", "[on|off|stats] — the name-resolution cache", cmd_cache);
    ("admission", "on | off | status — server overload protection", cmd_admission);
    ("metrics", "[FILTER] [--top N] | json | prom — counters and histograms", cmd_metrics);
    ("top", "[N] — hottest servers/links with time-series sparklines", cmd_top);
    ("telemetry", "on [EVERY] | off | status — rollups, time series, sampling", cmd_telemetry);
    ("events", "[N] — newest flight-recorder events (default 20)", cmd_events);
    ("slo", "— availability/latency objective summary", cmd_slo);
    ("record", "[on|off|status] | dump [FILE] — the flight recorder", cmd_record);
    ("echo", "TEXT... — print", cmd_echo);
  ]

let execute sh line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else begin
    pr "vsh> %s" line;
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [] -> ()
    | cmd :: args -> (
        match List.find_opt (fun (n, _, _) -> n = cmd) commands with
        | Some (_, _, f) -> run_or_report sh line (f sh args)
        | None ->
            pr "vsh: unknown command %S (try --list-commands)" cmd;
            sh.failed <- sh.failed + 1)
  end

let demo_script =
  [
    "echo -- files and contexts --";
    "write [home]hello.txt Hello from the V executive";
    "cat [home]hello.txt";
    "mkdir [home]papers";
    "write [home]papers/naming.mss Uniform access to distributed name interpretation";
    "ls [home]";
    "cd [home]papers";
    "pwd";
    "cat naming.mss";
    "query naming.mss";
    "chmod -w naming.mss";
    "query naming.mss";
    "echo -- prefixes and cross-server names --";
    "prefixes";
    "bind papers [home]papers";
    "cat [papers]naming.mss";
    "link [fs1]borrowed [home]papers";
    "cat [fs1]borrowed/naming.mss";
    "trace";
    "tree [home]";
    "find [home] naming";
    "du [home]";
    "echo -- the name-resolution cache --";
    "cache on";
    "cat [fs1]borrowed/naming.mss";
    "cat [fs1]borrowed/naming.mss";
    "cache stats";
    "cache off";
    "echo -- federated name domains --";
    "domains on 3";
    "domains tree";
    "write [fs0]tmp/fed.txt reached through the domain tree";
    "cat [dom]d1/d2/leaf/tmp/fed.txt";
    "domains resolve [dom]d1/d2/leaf/tmp/fed.txt";
    "cat [dom]d1/d2/leaf/tmp/fed.txt";
    "domains ttl";
    "domains off";
    "echo -- diverse objects, one interface --";
    "print naming.ps A4 output of the naming paper";
    "tell console executive started";
    "mail send cheriton@su-score.ARPA the demo script works";
    "mail read cheriton@su-score.ARPA";
    "ls [printer]";
    "ls [terminals]";
    "ls [mail]";
    "echo -- replicated storage --";
    "replicas on 2";
    "replicas status";
    "mkdir [rstore]repl";
    "resolve [rstore]repl";
    "resolve [rstore]repl";
    "cd [rstore]repl";
    "write a.txt written through a pinned replica context";
    "cat a.txt";
    "cd [home]";
    "replicas off";
    "echo -- overload protection --";
    "admission on";
    "write [home]burst.txt survives under admission control";
    "cat [home]burst.txt";
    "admission status";
    "admission off";
    "echo -- failure and recovery --";
    "crash 0";
    "cat [storage]hello.txt";
    "restart 0";
    "write [storage]tmp/after.txt written after restart";
    "cat [storage]tmp/after.txt";
    "netstat";
    "net topo";
    "net stats";
    "engine stats";
    "metrics";
    "time";
    "echo -- scale telemetry --";
    "telemetry on 4";
    "write [home]tele.txt feeding the rollup tree";
    "cat [home]tele.txt";
    "cat [home]tele.txt";
    "top 8";
    "metrics runtime --top 3";
    "telemetry status";
    "telemetry off";
    "echo -- the flight recorder and the SLO --";
    "record status";
    "events 12";
    "slo";
    "record dump";
    "echo -- seeded fault injection --";
    "fault plan 42 10000";
    "fault status";
    "fault inject 7 5000";
  ]

let run_shell script =
  let t = Scenario.build ~workstations:2 ~file_servers:2 ~tracing:true () in
  (* The interactive shell flies with the recorder on and an SLO engine
     attached, so `events`, `slo` and `record dump` have data; both are
     pure bookkeeping and leave simulated timings untouched. *)
  Vobs.Eventlog.set_enabled (Vobs.Hub.events t.Scenario.obs) true;
  Vobs.Hub.set_slo t.Scenario.obs (Some (Vobs.Slo.create ()));
  let exit_code = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"vsh" (fun _self env ->
         let sh =
           {
             env;
             scenario = t;
             failed = 0;
             injector = None;
             replicas = None;
             domains = None;
             admission_on = false;
           }
         in
         List.iter (execute sh) script;
         if sh.failed > 0 then begin
           pr "vsh: %d command(s) failed" sh.failed;
           (* Failures are part of some demos (reads after a crash); the
              exit code only reflects unexpected breakage when a script
              was supplied. *)
           exit_code := 0
         end));
  Scenario.run t;
  pr "vsh: done at %.2f simulated ms" (Vsim.Engine.now t.Scenario.engine);
  !exit_code

(* --- command line --- *)

let main script_file list_commands =
  if list_commands then begin
    List.iter (fun (n, help, _) -> pr "  %-9s %s" n help) commands;
    0
  end
  else
    match script_file with
    | None -> run_shell demo_script
    | Some path ->
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        run_shell (List.rev !lines)

let () =
  let open Cmdliner in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Command script to execute.")
  in
  let list_commands =
    Arg.(value & flag & info [ "list-commands" ] ~doc:"List available commands.")
  in
  let term = Term.(const main $ script $ list_commands) in
  let info =
    Cmd.info "vsh" ~doc:"The V executive over a simulated V-System domain."
  in
  exit (Cmd.eval' (Cmd.v info term))
