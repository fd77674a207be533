(* Replicated writes at O(members) host cost: the kernel's group write
   log checked step for step against the list model it replaced, the
   allocation gates on the log and on the member lookup, and the member
   lookup and fabric reachability checked against brute-force scans. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module E = Vnet.Ethernet
module Topology = Vnet.Topology
module C = Vnet.Calibration
module Scenario = Vworkload.Scenario
module Replica = Vservices.Replica
module File_server = Vservices.File_server
module Model = Write_log_model

let int_cost =
  { K.payload_bytes = (fun (_ : int) -> 0); K.segment_bytes = (fun _ -> 0) }

(* A bare domain with one service group and no hosts: all the write log
   needs. *)
let log_domain () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  let d = K.create_domain ~cost:int_cost eng net in
  let service = 77 in
  K.register_service_group d ~service ~group:(K.create_group d);
  (d, service)

(* --- the write log against its model --- *)

(* A coordinator-shaped random script: appends from [origins] origins,
   each logging consecutive seqs, enough of them to cross the cap. *)
let script ~seed ~origins =
  let rng = Random.State.make [| seed |] in
  let next = Array.make origins 1 in
  let appends = Model.cap + 500 + Random.State.int rng 2000 in
  let ops = ref [] in
  for _ = 1 to appends do
    let o = Random.State.int rng origins in
    ops := (o, next.(o)) :: !ops;
    next.(o) <- next.(o) + 1
  done;
  List.rev !ops

let log_matches_model =
  QCheck.Test.make ~name:"write log equals the list model after every step"
    ~count:6
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, origins) ->
      let d, service = log_domain () in
      let m = Model.create () in
      List.iteri
        (fun step (origin, seq) ->
          K.log_group_write d ~service ~origin ~seq step;
          Model.log m ~origin ~seq step;
          let fail what =
            QCheck.Test.fail_reportf "step %d (log (%d, %d)): %s differs" step
              origin seq what
          in
          if K.group_write_log d ~service <> Model.entries m then
            fail "group_write_log";
          if K.group_write_trimmed d ~service <> Model.trimmed m then
            fail "group_write_trimmed")
        (script ~seed ~origins);
      (* The script must reach the case the model exists for. *)
      if Model.trimmed m = [] then
        QCheck.Test.fail_report "the cap was never crossed";
      true)

(* --- allocation gates --- *)

(* Appending costs a bounded number of words per entry, with or without
   a full log: 9.0 on OCaml 5.1 (the 3-tuple, the queue cell and the
   service lookup's option). The ceiling sits about 40% above it. The
   list log copied all 1024 entries on every append past the cap (about
   9k words). *)
let test_log_allocation () =
  let d, service = log_domain () in
  let n = 4096 in
  let before = Gc.minor_words () in
  for seq = 1 to n do
    K.log_group_write d ~service ~origin:1 ~seq 0
  done;
  let per_entry = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per entry <= 13" per_entry)
    true (per_entry <= 13.0);
  Alcotest.(check int) "log holds the cap" Model.cap
    (List.length (K.group_write_log d ~service))

(* Minor words one [service_group_members] call allocates for a
   3-member group in an installation of [hosts] hosts. *)
let lookup_words ~hosts =
  let eng = Vsim.Engine.create () in
  let net =
    E.create ~topology:(Topology.switched ~fan_in:16) ~config:C.ethernet_3mbit
      eng
  in
  let d = K.create_domain ~cost:int_cost eng net in
  let hs =
    Array.init hosts (fun a -> K.boot_host d ~name:(Fmt.str "h%d" a) a)
  in
  let group = K.create_group d and service = 9 in
  List.iter
    (fun a ->
      let h = hs.(a) in
      K.join_group h ~group (K.spawn h (fun self -> ignore (K.receive self))))
    [ 3; 40; 77 ];
  K.register_service_group d ~service ~group;
  let lookup () = K.service_group_members d ~requester:5 ~service in
  Alcotest.(check int) "three members" 3 (List.length (lookup ()));
  let reps = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (lookup ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

(* With no fault in force — including after a cut link is mended and a
   partition healed — a reachability check allocates nothing. *)
let test_reachable_allocation () =
  let net =
    E.create ~topology:(Topology.switched ~fan_in:4) ~config:C.ethernet_3mbit
      (Vsim.Engine.create ())
  in
  E.set_link_up net (Topology.Edge 0) Topology.Spine false;
  Alcotest.(check bool) "cut uplink" false (E.reachable net 1 9);
  E.set_link_up net (Topology.Edge 0) Topology.Spine true;
  E.partition net 1 9;
  E.heal net 1 9;
  let before = Gc.minor_words () in
  for a = 0 to 15 do
    ignore (Sys.opaque_identity (E.reachable net a (15 - a)))
  done;
  let words = Gc.minor_words () -. before in
  (* Allow the boxed float [Gc.minor_words] itself returns. *)
  Alcotest.(check bool) (Fmt.str "%.0f words for 16 checks" words) true
    (words <= 4.0)

let test_lookup_allocation () =
  let small = lookup_words ~hosts:100 and large = lookup_words ~hosts:1000 in
  Alcotest.(check (float 0.0))
    (Fmt.str "words per lookup at 100 hosts (%.1f) = at 1000 hosts" small)
    small large

(* --- the member lookup against a brute-force scan --- *)

(* Reachability as the fabric defined it before the in-place check:
   partitions, then every link of the built path. *)
let path_reachable net a b =
  (not (E.partitioned net a b))
  && List.for_all
       (fun (x, y) -> E.link_up net x y)
       (Topology.links (E.topology net) ~src:a ~dst:b)

let brute_members (t : Scenario.t) ~requester ~group =
  List.concat_map
    (fun h ->
      let addr = K.host_addr h in
      if K.host_is_up h && path_reachable t.net requester addr then
        List.filter_map
          (fun pid -> if K.alive t.domain pid then Some (pid, addr) else None)
          (K.local_group_members h ~group)
      else [])
    (K.hosts t.domain)
  |> List.sort (fun (p1, a1) (p2, a2) ->
         compare (a1, Pid.local_pid p1) (a2, Pid.local_pid p2))
  |> List.map (fun (pid, _) -> Pid.to_int pid)

type step =
  | Crash of int
  | Restart of int
  | Revive of int
  | Leave of int
  | Partition of int * int
  | Heal of int * int
  | Cut of int * int
  | Mend of int * int

let pp_step ppf = function
  | Crash i -> Fmt.pf ppf "crash fs%d" i
  | Restart i -> Fmt.pf ppf "restart fs%d" i
  | Revive i -> Fmt.pf ppf "revive fs%d" i
  | Leave i -> Fmt.pf ppf "leave fs%d" i
  | Partition (w, i) -> Fmt.pf ppf "partition ws%d fs%d" w i
  | Heal (w, i) -> Fmt.pf ppf "heal ws%d fs%d" w i
  | Cut (h, k) -> Fmt.pf ppf "cut link %d of host %d" k h
  | Mend (h, k) -> Fmt.pf ppf "mend link %d of host %d" k h

let workstations = 3
let file_servers = 4
let factor = 3

let step_gen =
  QCheck.Gen.(
    let fs = int_bound (factor - 1) and ws = int_bound (workstations - 1) in
    let host = int_bound (workstations + file_servers - 1) in
    frequency
      [
        (3, map (fun i -> Crash i) fs);
        (3, map (fun i -> Restart i) fs);
        (3, map (fun i -> Revive i) fs);
        (2, map (fun i -> Leave i) fs);
        (2, map2 (fun w i -> Partition (w, i)) ws fs);
        (2, map2 (fun w i -> Heal (w, i)) ws fs);
        (2, map2 (fun h k -> Cut (h, k)) host (int_bound 3));
        (2, map2 (fun h k -> Mend (h, k)) host (int_bound 3));
      ])

let steps_arb =
  QCheck.make
    ~print:(fun steps -> Fmt.str "%a" Fmt.(list ~sep:semi pp_step) steps)
    QCheck.Gen.(list_size (int_range 1 25) step_gen)

let members_match_brute_force =
  QCheck.Test.make
    ~name:"service_group_members equals a scan of every host" ~count:40
    steps_arb (fun steps ->
      let fan_in = 2 in
      let t =
        Scenario.build ~workstations ~file_servers
          ~topology:(Topology.switched ~fan_in) ~seed:5 ()
      in
      let d = t.domain in
      let host_of addr =
        match K.host_of_addr d addr with Some h -> h | None -> assert false
      in
      let rset =
        Replica.install d
          ~members:
            (List.init factor (fun i ->
                 (host_of (Scenario.fs_addr i), t.file_servers.(i))))
          ()
      in
      let group = Replica.group rset and service = Replica.service rset in
      let member_pid i =
        Option.map File_server.pid
          (Replica.find_member rset (Scenario.fs_addr i))
      in
      let addr_of_host h =
        if h < workstations then Scenario.ws_addr h
        else Scenario.fs_addr (h - workstations)
      in
      let link h k =
        let a = addr_of_host h in
        let e = Topology.Edge (Topology.edge_of ~fan_in a) in
        match k with
        | 0 -> (Topology.Host a, e)
        | 1 -> (e, Topology.Host a)
        | 2 -> (e, Topology.Spine)
        | _ -> (Topology.Spine, e)
      in
      let apply = function
        | Crash i -> K.crash_host (host_of (Scenario.fs_addr i))
        | Restart i ->
            let h = host_of (Scenario.fs_addr i) in
            if not (K.host_is_up h) then K.restart_host h
        | Revive i -> (
            let h = host_of (Scenario.fs_addr i) in
            match member_pid i with
            | Some pid when K.host_is_up h && not (K.alive d pid) ->
                ignore (Replica.revive rset (Scenario.fs_addr i))
            | Some _ | None -> ())
        | Leave i -> (
            match member_pid i with
            | Some pid ->
                K.leave_group (host_of (Scenario.fs_addr i)) ~group pid
            | None -> ())
        | Partition (w, i) ->
            E.partition t.net (Scenario.ws_addr w) (Scenario.fs_addr i)
        | Heal (w, i) -> E.heal t.net (Scenario.ws_addr w) (Scenario.fs_addr i)
        | Cut (h, k) ->
            let x, y = link h k in
            E.set_link_up t.net x y false
        | Mend (h, k) ->
            let x, y = link h k in
            E.set_link_up t.net x y true
      in
      let requesters =
        List.init workstations Scenario.ws_addr
        @ List.init file_servers Scenario.fs_addr
      in
      List.iter
        (fun step ->
          apply step;
          Scenario.run ~until:(Vsim.Engine.now t.engine +. 500.0) t;
          List.iter
            (fun requester ->
              let got =
                List.map Pid.to_int
                  (K.service_group_members d ~requester ~service)
              in
              let want = brute_members t ~requester ~group in
              if got <> want then
                QCheck.Test.fail_reportf
                  "after %a, from host %d: [%a] vs brute force [%a]" pp_step
                  step requester
                  Fmt.(list ~sep:comma int)
                  got
                  Fmt.(list ~sep:comma int)
                  want)
            requesters)
        steps;
      true)

(* --- in-place reachability against the built path --- *)

let reachable_matches_path =
  QCheck.Test.make
    ~name:"Ethernet.reachable equals partitions + every path link up"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 4))
    (fun (seed, which) ->
      let topology =
        match which with
        | 0 -> Topology.Shared_medium
        | k -> Topology.switched ~fan_in:(List.nth [ 1; 4; 16; 64 ] (k - 1))
      in
      let fan_in =
        match topology with
        | Topology.Switched { fan_in } -> fan_in
        | Topology.Shared_medium -> 8
      in
      let net =
        E.create ~topology ~config:C.ethernet_3mbit (Vsim.Engine.create ())
      in
      let rng = Random.State.make [| seed |] in
      let hosts = 4 * fan_in in
      let addr () = Random.State.int rng hosts in
      let check_pairs () =
        for _ = 1 to 40 do
          let a = addr () in
          let b =
            match Random.State.int rng 3 with
            | 0 -> a
            | 1 -> (a / fan_in * fan_in) + Random.State.int rng fan_in
            | _ -> addr ()
          in
          if E.reachable net a b <> path_reachable net a b then
            QCheck.Test.fail_reportf "%a: host%d -> host%d" Topology.pp topology
              a b
        done
      in
      check_pairs ();
      for _ = 1 to 30 do
        (match (topology, Random.State.int rng 3) with
        | Topology.Switched _, (0 | 1) ->
            let a = addr () in
            let e = Topology.Edge (Topology.edge_of ~fan_in a) in
            let x, y =
              match Random.State.int rng 4 with
              | 0 -> (Topology.Host a, e)
              | 1 -> (e, Topology.Host a)
              | 2 -> (e, Topology.Spine)
              | _ -> (Topology.Spine, e)
            in
            E.set_link_up net x y (Random.State.int rng 3 = 0)
        | _ ->
            let a = addr () and b = addr () in
            if Random.State.bool rng then E.partition net a b
            else E.heal net a b);
        check_pairs ()
      done;
      true)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "replica-cost",
      [
        qcheck log_matches_model;
        Alcotest.test_case "write log allocates O(1) words per entry" `Quick
          test_log_allocation;
        Alcotest.test_case "member lookup allocation independent of hosts"
          `Quick test_lookup_allocation;
        Alcotest.test_case "reachability allocates nothing without faults"
          `Quick test_reachable_allocation;
        qcheck members_match_brute_force;
        qcheck reachable_matches_path;
      ] );
  ]
