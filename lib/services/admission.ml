(* Server overload protection: the policy half of admission control.

   The kernel owns the mechanism (two queues per protected process, a
   rejection reply sent on the server's behalf — see
   [Vkernel.Kernel.set_admission]); this module owns everything that
   needs to understand V messages:

   - lane classification: name-resolution traffic rides the interactive
     lane, bulk mutation (writes, MoveTo-backed loads) the bulk lane,
     so cheap lookups overtake queued bulk work;
   - queue caps, bulk lower than interactive, so bulk is shed first as
     load rises;
   - deadline-aware drop: a request stamped with a client deadline that
     the queue wait alone would already blow is rejected immediately —
     queueing it would burn service time on an answer nobody waits for;
   - the retry-after hint: each Busy reply carries the server's own
     estimate of its queue drain time, which the client's resilience
     policy trusts over its computed backoff.

   Replicated writes stamped with a coordinator (origin, seq) are
   admitted unconditionally: a member that silently shed one would
   refuse every later write as a sequence gap until a log replay, so
   backpressure on replicated traffic belongs at the coordinator —
   which is exactly where [coordinator] profiles install it.

   Everything here is pure except [install]/[uninstall]; service-time
   budgets come from the calibrated cost model, so the policy's idea of
   "queue wait" tracks what the simulation actually charges. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Calibration = Vnet.Calibration
open Vnaming

type config = {
  queue_cap : int;
      (* total queued requests beyond which even interactive traffic is
         shed *)
  bulk_cap : int;
      (* total queued requests beyond which bulk traffic is shed; lower
         than [queue_cap], so bulk goes first *)
  service_ms : float;
      (* modelled per-request service time: the queue-wait estimate is
         [depth * service_ms] *)
  retry_floor_ms : float;  (* no retry-after hint below this *)
}

(* --- profiles, budgeted from the calibrated cost model --- *)

let make ?(queue_cap = 16) ?(bulk_cap = 8) ?(retry_floor_ms = 5.0) ~service_ms
    () =
  if bulk_cap > queue_cap then
    invalid_arg "Admission.make: bulk_cap > queue_cap";
  { queue_cap; bulk_cap; service_ms; retry_floor_ms }

(* A disk-backed storage server: each queued request is worth roughly a
   disk page. *)
let file_server () = make ~service_ms:Calibration.disk_page_ms ()

(* A pure name server (context prefix or administrative domain server):
   requests cost a prefix parse or a component walk — cheap, so the
   queue drains fast and hints are short. *)
let name_server () =
  make
    ~service_ms:
      (Calibration.prefix_parse_cpu +. Calibration.csname_common_cpu
     +. Calibration.component_lookup_cpu)
    ()

(* A replica-set write coordinator: every bulk request fans out to all
   [replicas] members and waits a disk page plus a packet round-trip at
   each. This is where replicated-write backpressure belongs (members
   must apply every stamped write they are sent). *)
let coordinator ~replicas () =
  let per_member =
    Calibration.disk_page_ms +. Calibration.small_packet_send_cpu
    +. Calibration.small_packet_recv_cpu
  in
  make ~service_ms:(float_of_int (max 1 replicas) *. per_member) ()

(* --- classification --- *)

type lane = Interactive | Bulk

(* Bulk is what moves or mutates data in quantity: CSNH writes, the
   I/O-protocol write path, and whole-file loads (MoveTo fan-in).
   Everything else — resolution, opens, reads, queries — is the cheap
   interactive traffic the caps protect. *)
let classify (msg : Vmsg.t) =
  let code = msg.Vmsg.code in
  if
    Vmsg.Op.is_csname_write code
    || code = Vmsg.Op.write_instance
    || code = Vmsg.Op.set_instance_size
    || code = Vmsg.Op.load_file
  then Bulk
  else Interactive

let lane_to_string = function Interactive -> "interactive" | Bulk -> "bulk"

(* --- the decision --- *)

(* The server's own estimate of when capacity frees: the time to drain
   what is queued ahead, floored so clients never hammer a momentarily
   full queue. *)
let retry_after_ms config ~depth =
  Float.max config.retry_floor_ms (float_of_int depth *. config.service_ms)

let shed config ~depth =
  Kernel.Shed (Vmsg.busy ~retry_after_ms:(retry_after_ms config ~depth) ())

(* [decide config ~now ~depth msg] — the hook installed on a protected
   server. [depth] is the total queued (both lanes) before [msg]. *)
let decide config ~now ~depth (msg : Vmsg.t) =
  match msg.Vmsg.wseq with
  | Some _ ->
      (* Coordinator-stamped replicated write: always apply (in-order
         guarantee); shed at the coordinator instead. *)
      Kernel.Admit
  | None -> (
      (* Deadline-aware drop: if the queue wait alone already blows the
         client's stamped deadline, serving it is wasted work. *)
      let doomed =
        match msg.Vmsg.deadline with
        | Some d -> now +. (float_of_int (depth + 1) *. config.service_ms) > d
        | None -> false
      in
      if doomed then shed config ~depth
      else
        match classify msg with
        | Bulk ->
            if depth >= config.bulk_cap then shed config ~depth
            else Kernel.Admit_bulk
        | Interactive ->
            if depth >= config.queue_cap then shed config ~depth
            else Kernel.Admit)

(* --- installation --- *)

let install domain pid config = Kernel.set_admission domain pid (decide config)
let uninstall domain pid = Kernel.clear_admission domain pid

(* A context prefix server is a pure name server; protect it as one.
   (It lives below this library, so the adoption helper is here.) *)
let protect_prefix_server domain ps =
  install domain (Prefix_server.pid ps) (name_server ())

(* [(admitted, shed)] since installation. *)
let counters domain pid = Kernel.admission_counters domain pid

let queue_depth domain pid = Kernel.queue_depth domain pid
