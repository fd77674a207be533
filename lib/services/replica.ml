(* Replicated directory service management (§7).

   A replica set is N file servers joined into one process group and
   registered, domain-wide, under one logical service id. Clients name
   the service through a logical prefix binding; GetPid then returns one
   live member via the kernel's deterministic balancer (read-one), and
   the coordinating prefix server fans CSNH writes out to every member
   (write-all, see {!Prefix_server}).

   This module only wires the pieces together: it owns no protocol
   state. Members register the service with [Remote] scope so a GetPid
   issued on a member's own host still goes through the balancer rather
   than short-circuiting in the local service table. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Ethernet = Vnet.Ethernet
open Vnaming

type t = {
  domain : Vmsg.t Kernel.domain;
  service : int;
  group : int;
  mutable members : (Ethernet.addr * File_server.t) list;
}

let service t = t.service
let group t = t.group
let factor t = List.length t.members

let members t =
  List.sort (fun (a, _) (b, _) -> compare a b) t.members

let member_pids t = List.map (fun (_, fs) -> File_server.pid fs) (members t)

let find_member t addr =
  List.assoc_opt addr t.members

(* The prefix-binding target clients should use for this replica set:
   logical, so every use re-resolves through GetPid (§6) and therefore
   through the balancer. *)
let target t =
  Prefix_server.Logical
    { service = t.service; context = Context.Well_known.default }

let enroll t host fs =
  let p = File_server.pid fs in
  Kernel.set_pid host ~service:t.service p Service.Remote;
  Kernel.join_group host ~group:t.group p

let install domain ?(service = Service.Id.replica_storage) ~members () =
  let group = Kernel.create_group domain in
  let t =
    {
      domain;
      service;
      group;
      members =
        List.map (fun (host, fs) -> (Kernel.host_addr host, fs)) members;
    }
  in
  List.iter (fun (host, fs) -> enroll t host fs) members;
  Kernel.register_service_group domain ~service ~group;
  t

let uninstall t = Kernel.clear_service_group t.domain ~service:t.service

(* Overload-protect the whole replica set. Each member gets the
   file-server policy — under which coordinator-stamped fan-out writes
   are always admitted, so write-all ordering is never broken by a
   member shedding — and the coordinating prefix server [ps] gets the
   coordinator policy sized to the replication factor: the one place
   replicated-write backpressure is applied. Members protect their
   replacements automatically across [revive] (the config rides the
   file-server record through [restart_from]). *)
let protect t ps =
  List.iter
    (fun (_, fs) -> File_server.enable_admission fs t.domain ())
    t.members;
  Admission.install t.domain (Prefix_server.pid ps)
    (Admission.coordinator ~replicas:(factor t) ())

(* Retries per logged entry before a catch-up gives up: the sends are
   host-local, so a failure means the host is going down again and the
   rejoin should be abandoned, not papered over. *)
let replay_attempts = 5

(* Replay the group write log to member process [p] from a process on
   its own host (local sends are immune to partitions), then run
   [on_caught_up] — atomically with the check that there is nothing
   left to replay.

   The loop matters: writes keep fanning out while the replay runs, so
   one pass over a snapshot of the log is not enough. Each round
   re-reads the log and replays what this process has not sent yet
   (the member's {!Seq_guard} deduplicates, so overlap with the live
   fan-out is harmless). Each origin's seqs rise in log order, so the
   highest seq replayed per origin is a cursor, also once the cap
   trims the log's head. The round that finds no new entry runs
   [on_caught_up] in that same event step. A coordinator takes its
   members and logs its write in one event step too, so each write is
   either logged before that round and replayed, or fanned out to the
   enrolled member. A replay send that still fails after
   {!replay_attempts} aborts the catch-up without running
   [on_caught_up]: the member has a known gap and must not rejoin. *)
let catch_up t host p ~label ~on_caught_up =
  let d = t.domain in
  let engine = Kernel.engine_of_domain d in
  ignore
    (Kernel.spawn host ~name:label (fun self ->
         (* Outcomes count under (the member's host, "replica"). *)
         let r = Events.of_self self ~server:"replica" in
         let replayed = Hashtbl.create 4 in
         let fresh (origin, seq, _) =
           seq > Option.value (Hashtbl.find_opt replayed origin) ~default:0
         in
         let replay (origin, seq, msg) =
           let rec go attempt =
             match Kernel.send self p msg with
             | Ok (_ : Vmsg.t * Pid.t) ->
                 Hashtbl.replace replayed origin seq;
                 true
             | Error _ when attempt < replay_attempts ->
                 Events.count r "replay-retry";
                 Vsim.Proc.delay engine 1.0;
                 go (attempt + 1)
             | Error _ -> false
           in
           go 1
         in
         let rec drain () =
           match List.filter fresh (Kernel.group_write_log d ~service:t.service) with
           | [] -> on_caught_up ()
           | tail ->
               if List.for_all replay tail then drain ()
               else Events.count r "catchup-abort"
         in
         drain ()))

(* Revive the member on [addr] after a crash: boot a fresh server over
   the surviving disk, replay the group's write log to it — the member's
   {!Seq_guard} skips everything already applied (durable marks) and
   applies the writes it missed while down, in order — and only then
   rejoin the group, so the balancer and the write fan-out never see a
   member that has not caught up. The rejoin is abandoned (and counted
   under the "replica" metrics) if the capped log has trimmed writes
   this member never applied, or if the replay itself fails: enrolling
   a member with a known gap would serve stale reads as fresh. *)
let revive t addr =
  match (find_member t addr, Kernel.host_of_addr t.domain addr) with
  | None, _ | _, None -> None
  | Some fs, Some host ->
      let fresh = File_server.restart_from fs host in
      t.members <-
        (addr, fresh) :: List.remove_assoc addr t.members;
      let covered =
        List.for_all
          (fun (origin, trimmed) ->
            File_server.applied_wseq fresh ~origin >= trimmed)
          (Kernel.group_write_trimmed t.domain ~service:t.service)
      in
      if covered then
        catch_up t host (File_server.pid fresh) ~label:"replica-catchup"
          ~on_caught_up:(fun () -> enroll t host fresh)
      else
        Events.count
          (Events.make t.domain ~host:(Kernel.host_name host) ~server:"replica"
             ())
          "catchup-uncovered";
      Some fresh

(* Replay the write log to every live member: the convergence pass run
   when a partition heals. A member that was partitioned from
   the coordinator missed its fan-outs silently — and its in-order
   {!Seq_guard} has been refusing every later write since — so replay
   is what brings it back in step; members that missed nothing answer
   every entry from their guards at no cost to consistency. *)
let sync t =
  List.iter
    (fun (addr, fs) ->
      match Kernel.host_of_addr t.domain addr with
      | None -> ()
      | Some host ->
          if Kernel.host_is_up host then
            catch_up t host (File_server.pid fs) ~label:"replica-sync"
              ~on_caught_up:(fun () -> ()))
    (members t)
