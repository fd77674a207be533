(* The distributed V kernel (paper §3, §4).

   One [domain] is a set of logical hosts on one simulated Ethernet,
   over which the IPC primitives are transparent. Each simulated V
   process is a [Vsim.Proc] fiber; Send blocks the fiber until the
   Reply arrives, exactly mirroring the paper's message-transaction
   semantics (Figure 1), including Forward, MoveTo/MoveFrom bulk
   transfer, SetPid/GetPid service naming with broadcast lookup, and
   process groups with multicast Send.

   The kernel is parametric in the message type ['m]: it never inspects
   messages, only charges wire/CPU costs through a caller-supplied
   {!cost_model} — the same separation the real kernel has from the
   message standards built above it (§3.2). *)

module Calibration = Vnet.Calibration
module Ethernet = Vnet.Ethernet
module Topology = Vnet.Topology
module Engine = Vsim.Engine
module Proc = Vsim.Proc

type error =
  | Timeout  (** retransmission budget exhausted; destination unreachable *)
  | Nonexistent_process  (** the pid names no live process *)
  | Not_awaiting_reply  (** Reply/Forward/Move for a process we are not serving *)
  | Bad_buffer  (** Move beyond the buffer the sender exposed *)
  | No_reply  (** group Send that no member answered *)

let pp_error ppf = function
  | Timeout -> Fmt.string ppf "timeout"
  | Nonexistent_process -> Fmt.string ppf "nonexistent process"
  | Not_awaiting_reply -> Fmt.string ppf "not awaiting reply"
  | Bad_buffer -> Fmt.string ppf "bad buffer"
  | No_reply -> Fmt.string ppf "no reply"

exception Ipc_error of error

type 'm cost_model = {
  payload_bytes : 'm -> int;
      (* bytes carried beyond the 32-byte message proper *)
  segment_bytes : 'm -> int;
      (* portion of the payload that must be copied into the receiver
         (e.g. an appended CSname); charges segment-copy CPU remotely *)
}

(* --- wire packets between kernels --- *)

type 'm packet =
  | Request of { txn : int; sender : Pid.t; target : Pid.t; msg : 'm }
  | Reply_pkt of { txn : int; replier : Pid.t; msg : 'm }
  | Nack of { txn : int; reason : error }
  | Getpid_query of { txn : int; requester_addr : int; service : int }
  | Getpid_reply of { txn : int; pid : Pid.t }
  | Move_request of { txn : int; mv : int; mover_addr : int; len : int }
  | Move_data of { mv : int; last : bool; data : bytes }
  | Move_to_data of { txn : int; mv : int; mover_addr : int; seq : int; last : bool; data : bytes }
  | Move_ack of { mv : int; outcome : (unit, error) result }
  | Group_request of { txn : int; sender : Pid.t; group : int; msg : 'm }

(* A message delivered to a local process, with its sender: what a
   receive returns, built once whether it is queued or handed over. *)
type 'm delivery = 'm * Pid.t

(* What a host remembers of one remote sender, after the V kernel's
   alien descriptors (Cheriton & Zwaenepoel, SOSP 1983): the sender's
   latest request delivered here and, once that request is answered,
   the reply frame to replay if a retransmission shows the frame was
   lost. A sender has one transaction outstanding at a time and its
   transaction ids only grow, so one record per sender is all that
   at-most-once delivery needs (see [handle_packet]). *)
type 'm alien = {
  mutable al_txn : int;  (* 0 until a request is delivered *)
  mutable al_reply : 'm packet Ethernet.frame option;  (* answers [al_txn] *)
}

(* What a per-process admission hook decided about an incoming request.
   The kernel supplies the mechanism (bounded queues, priority lanes, a
   kernel-level rejection reply); the policy — caps, deadline-aware
   drop, retry-after hints — lives above, in the layer that understands
   the message type (see [Vservices.Admission]). *)
type 'm admission_verdict =
  | Admit  (** enqueue on the interactive lane *)
  | Admit_bulk  (** enqueue on the bulk lane, served after interactive *)
  | Shed of 'm
      (** reject now: the kernel replies with this message on the
          server's behalf, without scheduling the server's fiber *)

(* --- the kernel's events (see Vobs.Stream) --- *)

(* One kind per reporting site. *)
type kind =
  | Send
  | Receive
  | Reply
  | Admit
  | Shed
  | Forward
  | Move_from
  | Move_to
  | Get_pid
  | Get_pid_balanced
  | Group_send
  | Forward_group
  | Destroy
  | Crash
  | Restart
  | Retransmit_probe
  | Forward_recovery_probe
  | Balancer_pick

(* The registry op of each counted kind, by [slot]; the first five are
   the per-transaction family. The uncounted kinds share the last slot,
   which is not exported. *)
let ops =
  [|
    "send"; "receive"; "reply"; "admit"; "shed"; "forward"; "move-from";
    "move-to"; "get-pid"; "get-pid-balanced"; "group-send"; "forward-group";
    "";
  |]

let slot = function
  | Send -> 0
  | Receive -> 1
  | Reply -> 2
  | Admit -> 3
  | Shed -> 4
  | Forward -> 5
  | Move_from -> 6
  | Move_to -> 7
  | Get_pid -> 8
  | Get_pid_balanced -> 9
  | Group_send -> 10
  | Forward_group -> 11
  | Destroy | Crash | Restart | Retransmit_probe | Forward_recovery_probe
  | Balancer_pick ->
      12

(* One reused event per host: a site fills it in and emits it, so the
   stream allocates nothing until a consumer keeps or prints it. The
   meaning of [a], [b] and [c] is the kind's, as [pp_event] reads them
   (pids as ints). *)
type event = {
  ev_host : string;
  mutable kind : kind;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable trace : int;
}

(* A blocked kernel call keeps its fiber's continuation in the record
   it waits in: a transaction's [pending] record, a move, a GetPid
   wait, or its process's receive slot. Whoever wakes the fiber takes
   that record out first, so every other wake finds nothing: a late
   reply, a timeout, a destroy or a crash each wake it at most once.
   A process remembers which record it waits in, so a destroy or crash
   can find it. *)
type 'm process = {
  pid : Pid.t;
  proc_name : string;
  proc_host : 'm host;
  queue : 'm delivery Queue.t;
  wait : 'm wait;
  (* What Receive and Send block on, built once with the process over
     [wait] (see [block_here]). A delivery and a reply are both a
     message and a pid, so one blocker serves both. *)
  blocker : ('m * Pid.t) Proc.blocker;
  mutable proc_alive : bool;
  (* Overload protection, off ([None]) by default: with no hook
     installed the request path costs exactly one extra word test. *)
  mutable admission : 'm admission option;
}

(* Where a process's blocked call waits. *)
and 'm wait = {
  (* The receive slot: a receive that found no message waits here
     until a delivery or an abort takes it. *)
  mutable receiver : 'm delivery Proc.waiting option;
  (* The key of the record any other blocking call waits in: the txn
     of a transaction or GetPid wait, or the negated id of a move; 0
     while it waits in Receive, and before its first such call. An int,
     so setting it writes no pointer. Left stale when the call returns;
     a txn or move id is never reused, so a stale key finds nothing. *)
  mutable blocked_on : int;
}

and 'm admission = {
  mutable ad_decide : now:float -> depth:int -> 'm -> 'm admission_verdict;
  (* The bulk lane: requests classified [Admit_bulk] wait here and are
     dequeued only when the interactive queue is empty, so cheap
     resolution traffic overtakes queued bulk work. *)
  ad_bulk : 'm delivery Queue.t;
  mutable ad_admitted : int;
  mutable ad_shed : int;
}

and 'm pending = {
  mutable p_sender : 'm sender;
  p_buffer : bytes option;
  (* The transaction's one timer ([arm_recovery], or GroupSend's
     deadline), so completion cancels it in O(1) instead of leaving a
     no-op event in the queue (the common case: every successful remote
     SRR arms it and never needs it). [Engine.no_timer] until armed. *)
  mutable p_timer : Engine.timer;
  mutable p_probes : int;  (* probes fired so far, across re-arms *)
}

(* A transaction's sender, which a Send registers before it blocks:
   still setting its transaction up, blocked on its continuation
   (resumed with (reply, replier)), or answered before it blocked, by
   an admission hook that shed its local request. *)
and 'm sender =
  | Sending
  | Blocked of ('m * Pid.t) Proc.waiting
  | Answered of ('m * Pid.t)

and move_op = {
  mv_mover : bytes Proc.waiting;
  mv_buf : Buffer.t;
  mutable mv_timer : Engine.timer;
}

(* A broadcast GetPid waiting for its first answer or its deadline. *)
and getpid_wait = {
  gw_asker : Pid.t option Proc.waiting;
  gw_deadline : Engine.timer;
}

and 'm host = {
  domain : 'm domain;
  addr : Ethernet.addr;
  host_name : string;
  mutable logical_host : int;
  mutable host_up : bool;
  processes : (int, 'm process) Hashtbl.t; (* by local pid *)
  services : (int, (Pid.t * Service.scope) list) Hashtbl.t;
  serving : (int, int) Hashtbl.t;
      (* serving_key sender receiver -> txn being served by receiver,
         as [lnot txn] for a group delivery (see [retire_served]) *)
  pendings : (int, 'm pending) Hashtbl.t; (* txn -> blocked local sender *)
  moves : (int, move_op) Hashtbl.t;
  getpid_waits : (int, getpid_wait) Hashtbl.t;
  (* At-most-once delivery of retransmitted requests: one record per
     remote sender, by pid. Never folded, so its size shapes nothing. *)
  aliens : (int, 'm alien) Hashtbl.t;
  group_members : (int, Pid.t list) Hashtbl.t;
  host_prng : Vsim.Prng.t;
  (* One int per kind, moved into an attached hub's registry by its
     scrape (see [scrape]); counting needs no guard and no branch. *)
  counts : int array;
  ev : event;
}

(* A logical service implemented by a whole process group (§7): GetPid
   for the service returns one member, chosen by the balancer; naming
   writes are fanned out write-all by the coordinating prefix server and
   appended here so a member that missed some (it was down, or
   partitioned away) can catch up by replay. The log only appends. The
   kernel never inspects the logged messages, only stores them — the
   same separation it keeps everywhere else. *)
and 'm service_group = {
  sg_group : int;  (* the process group implementing the service *)
  mutable sg_cursor : int;  (* round-robin position, seeded at registration *)
  sg_log : (int * int * 'm) Queue.t;  (* (origin, seq, msg), oldest first *)
  sg_trim_hw : (int, int) Hashtbl.t;  (* origin -> highest seq trimmed *)
}

and 'm domain = {
  engine : Engine.t;
  net : 'm packet Ethernet.t;
  cost : 'm cost_model;
  mutable next_txn : int;
  mutable next_mv : int;
  mutable next_logical_host : int;
  mutable next_group : int;
  logical_hosts : (int, 'm host) Hashtbl.t;
  (* Logical-host ids retired by a crash, mapped to the network address
     they lived at. A send to a pid of a retired incarnation is not
     failed omnisciently: the kernel has no liveness oracle, so the
     request goes on the wire to the last-known address and runs the
     probe machinery until it times out (or the restarted incarnation
     nacks it). *)
  retired_logical_hosts : (int, Ethernet.addr) Hashtbl.t;
  all_hosts : (Ethernet.addr, 'm host) Hashtbl.t;
  service_groups : (int, 'm service_group) Hashtbl.t;  (* by service id *)
  domain_prng : Vsim.Prng.t;
  mutable domain_obs : Vobs.Hub.t option;
  (* Extract the obs trace id riding inside a message, for stamping
     flight-recorder events. The kernel is parametric in ['m] and never
     inspects messages itself; the deployment (which knows the message
     type) installs the accessor. Default: everything untraced. *)
  mutable trace_of : 'm -> int;
  ipc_transactions : Vsim.Stats.Counter.t;
  (* host name -> metrics group scope, for [telemetry_group_of]. *)
  tel_groups : (string, string) Hashtbl.t;
  (* (series label, pid) of servers whose queue depth is traced:
     every pid with an admission hook installed. *)
  mutable tel_watched : (string * Pid.t) list;
}

type 'm self = 'm process

(* --- small helpers --- *)

let engine_of_domain d = d.engine

(* --- reporting: one event per site, into the hub's stream --- *)

(* The kernel's printer, the only place its events' text is written.
   The timeline capitalises the names the recorder writes in lower
   case. *)
let pp_event ~timeline ppf e =
  let pid ppf i = Pid.pp ppf (Pid.of_int i) in
  let name s = if timeline then String.capitalize_ascii s else s in
  match e.kind with
  | Send -> Fmt.pf ppf "%s %a -> %a" (name "send") pid e.a pid e.b
  | Receive -> Fmt.pf ppf "Receive %a <- %a" pid e.a pid e.b
  | Reply -> Fmt.pf ppf "Reply %a -> %a" pid e.a pid e.b
  | Forward ->
      Fmt.pf ppf "%s %a: %a -> %a" (name "forward") pid e.a pid e.b pid e.c
  | Move_from -> Fmt.pf ppf "MoveFrom %a <- %a (%dB)" pid e.a pid e.b e.c
  | Move_to -> Fmt.pf ppf "MoveTo %a -> %a (%dB)" pid e.a pid e.b e.c
  | Group_send -> Fmt.pf ppf "GroupSend %a -> group%d" pid e.a e.b
  | Forward_group ->
      Fmt.pf ppf "ForwardGroup %a: %a -> group%d" pid e.a pid e.b e.c
  | Destroy -> Fmt.pf ppf "Destroy %a" pid e.a
  | Crash -> Fmt.pf ppf "Crash host %s" e.ev_host
  | Restart -> Fmt.pf ppf "Restart host %s" e.ev_host
  | Shed -> Fmt.pf ppf "shed %a -> %a (depth %d)" pid e.a pid e.b e.c
  | Retransmit_probe -> Fmt.pf ppf "retransmit-probe txn %d" e.a
  | Forward_recovery_probe ->
      Fmt.pf ppf "forward-recovery-probe txn %d (attempt %d)" e.a e.b
  | Balancer_pick ->
      Fmt.pf ppf "pick service %d -> %a (%d reachable)" e.a pid e.b e.c
  | Admit | Get_pid | Get_pid_balanced -> Fmt.string ppf ops.(slot e.kind)

(* The consumers each kind goes to. *)
let consumers kind =
  let open Vobs.Stream in
  match kind with
  | Send -> timeline lor recorder lor pump
  | Forward -> timeline lor recorder
  | Receive | Reply | Move_from | Move_to | Group_send | Forward_group
  | Destroy | Crash | Restart ->
      timeline
  | Shed | Retransmit_probe | Forward_recovery_probe | Balancer_pick ->
      recorder
  | Admit | Get_pid | Get_pid_balanced -> 0

let layer =
  {
    Vobs.Stream.column = "ipc";
    cat =
      (fun e ->
        match e.kind with
        | Shed -> Vobs.Eventlog.Admission
        | Balancer_pick -> Vobs.Eventlog.Balancer
        | _ -> Vobs.Eventlog.Kernel);
    host = (fun e -> e.ev_host);
    trace = (fun e -> e.trace);
    pp = pp_event;
    span = None;
  }

(* The one guard, true only while a consumer of [kind] listens on the
   attached hub's stream; tested inside [report], never at a site. *)
let listening d kind =
  match d.domain_obs with
  | Some hub -> Vobs.Stream.listening (Vobs.Hub.stream hub) (consumers kind)
  | None -> false

let count host kind =
  let i = slot kind in
  host.counts.(i) <- host.counts.(i) + 1

let emit host kind a b c trace =
  match host.domain.domain_obs with
  | None -> ()
  | Some hub ->
      let e = host.ev in
      e.kind <- kind;
      e.a <- a;
      e.b <- b;
      e.c <- c;
      e.trace <- trace;
      Vobs.Stream.emit (Vobs.Hub.stream hub) layer ~consumers:(consumers kind)
        ~at:(Engine.now host.domain.engine)
        e

(* Report one event at [host]: counted always, emitted only while the
   hub listens. Reading the clock for the time stamp never advances
   it. *)
let report host kind a b c =
  count host kind;
  if listening host.domain kind then emit host kind a b c 0

(* [report] for an event about [msg], stamped with its trace id. *)
let report_msg host kind a b c msg =
  count host kind;
  let d = host.domain in
  if listening d kind then emit host kind a b c (d.trace_of msg)

(* The hub's scrape source: every host's counts into the registry. *)
let scrape d m =
  Hashtbl.iter
    (fun _ host ->
      Vobs.Stream.scrape_counts m ~host:host.host_name ~server:"kernel" ~ops
        ~family:5 host.counts)
    d.all_hosts

(* The one attach call: the domain and its wire report into [hub], and
   every read of the hub's registry scrapes the kernel's counts, then
   the wire's. *)
let set_obs d hub =
  d.domain_obs <- Some hub;
  Vobs.Metrics.add_source (Vobs.Hub.metrics hub) (fun m ->
      match d.domain_obs with Some h when h == hub -> scrape d m | _ -> ());
  Ethernet.attach_hub d.net hub

let obs d = d.domain_obs
let set_trace_of d f = d.trace_of <- f

let fresh_txn d =
  let t = d.next_txn in
  d.next_txn <- t + 1;
  t

let fresh_mv d =
  let t = d.next_mv in
  d.next_mv <- t + 1;
  t

let message_payload_bytes d m = 32 + d.cost.payload_bytes m
let control_payload_bytes = 16

(* Exception-style lookups: [Hashtbl.find_opt] allocates an option per
   probe, and pid resolution runs on every Send/Reply/Forward; matching
   on [exception Not_found] keeps the miss path allocation-free. *)
let live_process d pid =
  let host = Hashtbl.find d.logical_hosts (Pid.logical_host pid) in
  if not host.host_up then raise_notrace Not_found;
  let proc = Hashtbl.find host.processes (Pid.local_pid pid) in
  if not proc.proc_alive then raise_notrace Not_found;
  proc

let find_process d pid =
  match live_process d pid with
  | proc -> Some proc
  | exception Not_found -> None

let alive d pid = find_process d pid <> None

let self_pid proc = proc.pid
let self_name proc = proc.proc_name
let self_host_name proc = proc.proc_host.host_name
let host_of_self proc = proc.proc_host
let domain_of_host h = h.domain
let domain_of_self proc = proc.proc_host.domain
let host_addr h = h.addr
let host_logical h = h.logical_host
let host_name h = h.host_name
let host_is_up h = h.host_up

let check_alive proc =
  if not proc.proc_alive then raise (Proc.Killed "process destroyed")

(* Undelivered requests queued at [pid], both lanes. *)
let queue_depth d pid =
  match find_process d pid with
  | None -> 0
  | Some proc ->
      Queue.length proc.queue
      + (match proc.admission with
        | Some ad -> Queue.length ad.ad_bulk
        | None -> 0)

(* --- the telemetry pump --- *)

(* The metrics group of one host: its edge switch on a switched fabric,
   a 1024-host address shard on the shared medium (which has no
   segments, but fleet-minus-one granularity is still wanted). *)
let telemetry_scope_of_host d host =
  match Ethernet.topology d.net with
  | Topology.Switched { fan_in } ->
      Topology.node_to_string (Topology.Edge (Topology.edge_of ~fan_in host.addr))
  | Topology.Shared_medium -> Printf.sprintf "shard%d" (host.addr / 1024)

let register_telemetry_host d host =
  let scope = telemetry_scope_of_host d host in
  Hashtbl.replace d.tel_groups host.host_name scope;
  (* The net layer labels the same host "host<addr>"; registering that
     alias keeps its lookups off the topology-parsing fallback. *)
  Hashtbl.replace d.tel_groups (Printf.sprintf "host%d" host.addr) scope

(* The group mapping telemetry installs in the hub's metrics store:
   kernel host names map through the registration table, net-layer
   labels ("host3", "edge0->spine") through the topology; anything else
   is fleet-only. *)
let telemetry_group_of d name =
  match Hashtbl.find_opt d.tel_groups name with
  | Some g -> Some g
  | None -> Topology.rollup_scope (Ethernet.topology d.net) name

let telemetry_enabled d =
  match d.domain_obs with
  | Some hub -> Vobs.Stream.pump_armed (Vobs.Hub.stream hub)
  | None -> false

(* One pump firing: fleet-wide counters, the fabric's interior links,
   and every watched server queue, stamped at the current simulated
   instant. Records only — never schedules, never advances the clock,
   so the engine's event sequence is identical with the pump on or
   off. *)
let telemetry_sample d hub ~now =
  match Vobs.Hub.timeseries hub with
  | None -> ()
  | Some ts ->
      Vobs.Timeseries.sample ts "kernel/ipc-transactions"
        Vobs.Timeseries.Counter ~now
        (float_of_int (Vsim.Stats.Counter.value d.ipc_transactions));
      let c = Ethernet.counters d.net in
      Vobs.Timeseries.sample ts "net/frames-sent" Vobs.Timeseries.Counter ~now
        (float_of_int c.Ethernet.frames_sent);
      Vobs.Timeseries.sample ts "net/frames-dropped" Vobs.Timeseries.Counter
        ~now
        (float_of_int c.Ethernet.frames_dropped);
      Ethernet.sample_timeseries d.net ts ~now;
      List.iter
        (fun (label, pid) ->
          Vobs.Timeseries.sample ts label Vobs.Timeseries.Gauge ~now
            (float_of_int (queue_depth d pid)))
        d.tel_watched

(* [enable_telemetry d ~interval_ms] arms the attached hub's pump with
   [telemetry_sample], maps every booted host to its metrics group
   (hosts booted later register as they boot) and groups the hub's
   metrics store by that mapping. Send events drive the pump, so it adds
   no engine event: obs-on and obs-off runs execute identical event
   sequences. Without a hub there is nothing to feed. *)
let enable_telemetry d ~interval_ms =
  if interval_ms <= 0.0 then
    invalid_arg "Kernel.enable_telemetry: interval must be positive";
  match d.domain_obs with
  | None -> ()
  | Some hub ->
      Vobs.Stream.arm_pump (Vobs.Hub.stream hub) ~interval_ms
        ~now:(Engine.now d.engine) (telemetry_sample d hub);
      Hashtbl.iter (fun _ host -> register_telemetry_host d host) d.all_hosts;
      Vobs.Metrics.set_groups (Vobs.Hub.metrics hub)
        (Some (telemetry_group_of d))

let disable_telemetry d =
  Option.iter
    (fun hub ->
      Vobs.Stream.disarm_pump (Vobs.Hub.stream hub);
      Vobs.Metrics.set_groups (Vobs.Hub.metrics hub) None)
    d.domain_obs

let charge proc ms =
  check_alive proc;
  if ms > 0.0 then Proc.delay proc.proc_host.domain.engine ms;
  check_alive proc

(* --- waking a blocked call --- *)

(* Each wake below takes its record out of its table before it wakes
   the fiber, and cancels the record's timer, so no second wake finds
   the record and a timer that fires always finds it. Each is a no-op
   when the record has gone: the call was answered, timed out, aborted
   or crashed. All are safe from event context. *)

let retire_pending host ~txn pending =
  Hashtbl.remove host.pendings txn;
  Engine.cancel host.domain.engine pending.p_timer

(* Resume transaction [txn]'s blocked sender with [(reply, replier)].
   Cancelling the timer leaves a satisfied SRR no residue in the event
   queue. A sender that has not blocked yet keeps the reply, and its
   blocker wakes it (see [block_here]). *)
let resume_pending host ~txn reply =
  match Hashtbl.find host.pendings txn with
  | exception Not_found -> ()
  | { p_sender = Blocked k; _ } as pending ->
      retire_pending host ~txn pending;
      Proc.wake host.domain.engine k reply
  | pending -> pending.p_sender <- Answered reply

(* Nothing fails a transaction before its sender blocks. *)
let fail_pending host ~txn e =
  match Hashtbl.find host.pendings txn with
  | { p_sender = Blocked k; _ } as pending ->
      retire_pending host ~txn pending;
      Proc.wake_exn host.domain.engine k e
  | _ | (exception Not_found) -> ()

let finish_move host ~mv result =
  match Hashtbl.find host.moves mv with
  | exception Not_found -> ()
  | op -> (
      Hashtbl.remove host.moves mv;
      let engine = host.domain.engine in
      Engine.cancel engine op.mv_timer;
      match result with
      | Ok data -> Proc.wake engine op.mv_mover data
      | Error e -> Proc.wake_exn engine op.mv_mover e)

let settle_getpid host ~txn result =
  match Hashtbl.find host.getpid_waits txn with
  | exception Not_found -> ()
  | w -> (
      Hashtbl.remove host.getpid_waits txn;
      let engine = host.domain.engine in
      Engine.cancel engine w.gw_deadline;
      match result with
      | Ok answer -> Proc.wake engine w.gw_asker answer
      | Error e -> Proc.wake_exn engine w.gw_asker e)

(* Wake [proc]'s blocked kernel call, if it has one, with [e]. *)
let abort_blocked proc e =
  let host = proc.proc_host in
  let wait = proc.wait in
  (match wait.receiver with
  | Some k ->
      wait.receiver <- None;
      Proc.wake_exn host.domain.engine k e
  | None -> ());
  let key = wait.blocked_on in
  if key > 0 then begin
    fail_pending host ~txn:key e;
    settle_getpid host ~txn:key (Error e)
  end
  else if key < 0 then finish_move host ~mv:(-key) (Error e)

(* --- process lifecycle --- *)

exception Host_is_down of string

let alloc_local_pid host =
  let rec loop attempts =
    if attempts > 1_000_000 then failwith "Kernel: local pid space exhausted";
    let lp = 1 + Vsim.Prng.int host.host_prng Pid.max_local_pid in
    if Hashtbl.mem host.processes lp then loop (attempts + 1) else lp
  in
  loop 0

(* One int per (sender, receiver) pair: the receiver is always a
   process of this host, so its 16-bit local pid names it, and the
   40-bit sender pid shifted past it fits in 56 bits. *)
let serving_key ~sender ~receiver =
  (Pid.to_int sender lsl 16) lor Pid.local_pid receiver

(* The transaction the key's receiver serves for its sender. Raises
   [Not_found] if there is none. *)
let served host key =
  let v = Hashtbl.find host.serving key in
  if v < 0 then lnot v else v

(* The process's [serving] entries go with it, and each transaction it
   was serving or had queued fails with Nonexistent_process, in txn
   order, if its sender waits on this host. A sender on another host
   learns of it from its retransmission's nack: the kernel reads only
   its own host's tables. A group delivery fails nothing, since another
   member may still answer. *)
let retire_served proc =
  let host = proc.proc_host in
  let lp = Pid.local_pid proc.pid in
  let mine =
    Hashtbl.fold
      (fun key v acc ->
        if key land Pid.max_local_pid = lp then (key, v) :: acc else acc)
      host.serving []
  in
  List.iter (fun (key, _) -> Hashtbl.remove host.serving key) mine;
  List.filter_map (fun (_, v) -> if v >= 0 then Some v else None) mine
  |> List.sort Int.compare
  |> List.iter (fun txn ->
         fail_pending host ~txn (Ipc_error Nonexistent_process))

(* The process's record goes, once: on a destroy, or when its body
   returns or raises. A crash drops every record of its host at once
   and marks each process dead, so the body's end finds nothing left
   here to do. *)
let destroy_process_record proc =
  if proc.proc_alive then begin
    proc.proc_alive <- false;
    Hashtbl.remove proc.proc_host.processes (Pid.local_pid proc.pid);
    retire_served proc
  end

(* The register of a process's blocker. A Receive's continuation waits
   in the receive slot ([blocked_on] is 0). A Send's waits in the
   pending record the Send registered under [blocked_on], unless a shed
   answered the Send first; then it wakes at once, in the one event any
   reply takes. *)
let block_here host wait k =
  match wait.blocked_on with
  | 0 -> wait.receiver <- Some k
  | txn -> (
      let pending = Hashtbl.find host.pendings txn in
      match pending.p_sender with
      | Answered reply ->
          retire_pending host ~txn pending;
          Proc.wake host.domain.engine k reply
      | Sending | Blocked _ -> pending.p_sender <- Blocked k)

let spawn host ?(name = "process") body =
  if not host.host_up then raise (Host_is_down host.host_name);
  let lp = alloc_local_pid host in
  let pid = Pid.make ~logical_host:host.logical_host ~local_pid:lp in
  let wait = { receiver = None; blocked_on = 0 } in
  let proc =
    {
      pid;
      proc_name = name;
      proc_host = host;
      queue = Queue.create ();
      wait;
      blocker = Proc.blocker (fun k -> block_here host wait k);
      proc_alive = true;
      admission = None;
    }
  in
  Hashtbl.replace host.processes lp proc;
  Proc.spawn ~name host.domain.engine (fun () ->
      match body proc with
      | () -> destroy_process_record proc
      | exception e ->
          destroy_process_record proc;
          raise e);
  pid

(* Kill one process: its fiber is torn down at its next suspension
   point (it is blocked now, or will block at its next kernel call). *)
let destroy_process d pid =
  match find_process d pid with
  | None -> false
  | Some proc ->
      report proc.proc_host Destroy (Pid.to_int pid) 0 0;
      destroy_process_record proc;
      abort_blocked proc (Proc.Killed "destroyed");
      true

(* --- delivery --- *)

(* Deliver [sender]'s transaction to [proc], which now serves it (its
   Reply or Forward finds [served], the txn or, for a group delivery,
   [lnot txn]): a receiver blocked in Receive is woken with the
   delivery, otherwise it waits on [lane]. The lane is the process's
   own queue, or an admission hook's bulk lane, which is dequeued only
   once the queue is empty. *)
let deliver ~served ~sender proc lane msg =
  Hashtbl.replace proc.proc_host.serving
    (serving_key ~sender ~receiver:proc.pid)
    served;
  if proc.proc_alive then
    match proc.wait.receiver with
    | Some k ->
        proc.wait.receiver <- None;
        Proc.wake proc.proc_host.domain.engine k (msg, sender)
    | None -> Queue.add (msg, sender) lane

let transmit host ~dst ~payload_bytes packet =
  Ethernet.transmit host.domain.net
    { Ethernet.src = host.addr; dst; payload = packet; payload_bytes }

(* Run [k] once the receive-side CPU for a message-bearing packet
   arriving off the wire is spent. The arrival time is the sum
   [Engine.schedule ~delay] would form, without its option, and goes
   to the engine through its time cell. *)
let after_remote_recv d msg k =
  let cost =
    Calibration.small_packet_recv_cpu
    +. if d.cost.segment_bytes msg > 0 then Calibration.segment_copy_remote_cpu
       else 0.0
  in
  Engine.due.at <- Engine.now d.engine +. cost;
  Engine.schedule_due d.engine k

(* The record of remote [sender] at [host], made on its first
   request. *)
let alien host sender =
  let key = Pid.to_int sender in
  match Hashtbl.find host.aliens key with
  | al -> al
  | exception Not_found ->
      let al = { al_txn = 0; al_reply = None } in
      Hashtbl.replace host.aliens key al;
      al

(* Put [replier]'s answer to [sender]'s transaction [txn] on the wire
   towards [dst]. The frame is kept for replay when [sender]'s record
   here holds [txn]; a reply with no record answers a group request,
   which is never retransmitted. *)
let reply_remote host ~txn ~sender ~replier ~dst msg =
  let frame =
    {
      Ethernet.src = host.addr;
      dst = Ethernet.Unicast dst;
      payload = Reply_pkt { txn; replier; msg };
      payload_bytes = message_payload_bytes host.domain msg;
    }
  in
  (match Hashtbl.find host.aliens (Pid.to_int sender) with
  | al when al.al_txn = txn -> al.al_reply <- Some frame
  | _ | (exception Not_found) -> ());
  Ethernet.transmit host.domain.net frame

(* --- request dispatch (Send and Forward share this) --- *)

(* Complete a shed transaction on the server's behalf: resume a local
   sender directly, or put the rejection on the wire towards a remote
   one (kept for replay exactly like an ordinary reply). No server
   fiber runs and no service time is charged — rejection is the cheap
   path, which is the entire point of shedding early. *)
let shed_reply host ~txn ~sender ~replier msg =
  match find_process host.domain sender with
  | Some sender_proc when sender_proc.proc_host == host ->
      resume_pending host ~txn (msg, replier)
  | Some sender_proc ->
      reply_remote host ~txn ~sender ~replier ~dst:sender_proc.proc_host.addr
        msg
  | None -> () (* sender died while blocked; nothing to resume *)

let dispatch_local_request host ~txn ~sender ~target_proc msg =
  match target_proc.admission with
  | None -> deliver ~served:txn ~sender target_proc target_proc.queue msg
  | Some ad -> (
      let depth = Queue.length target_proc.queue + Queue.length ad.ad_bulk in
      match ad.ad_decide ~now:(Engine.now host.domain.engine) ~depth msg with
      | (Admit | Admit_bulk) as verdict ->
          ad.ad_admitted <- ad.ad_admitted + 1;
          count host Admit;
          deliver ~served:txn ~sender target_proc
            (match verdict with
            | Admit_bulk -> ad.ad_bulk
            | Admit | Shed _ -> target_proc.queue)
            msg
      | Shed reply_msg ->
          ad.ad_shed <- ad.ad_shed + 1;
          report_msg host Shed (Pid.to_int sender)
            (Pid.to_int target_proc.pid)
            depth msg;
          shed_reply host ~txn ~sender ~replier:target_proc.pid reply_msg)

(* The request frame of transaction [txn] towards [dst_addr]: one frame
   serves the first transmission and every resend. *)
let request_frame host ~dst_addr ~txn ~sender ~target msg =
  {
    Ethernet.src = host.addr;
    dst = Ethernet.Unicast dst_addr;
    payload = Request { txn; sender; target; msg };
    payload_bytes = message_payload_bytes host.domain msg;
  }

let max_timeout_probes = 60

let target_host_reachable host dst_addr =
  let d = host.domain in
  match Hashtbl.find d.all_hosts dst_addr with
  | h -> h.host_up && Ethernet.reachable d.net host.addr dst_addr
  | exception Not_found -> false

(* Arm the one timer of a transaction that has left this host for
   [dst_addr]. Any timer it had is cancelled, so a re-forward replaces
   the chain; the probe count stays with the transaction. The timer is
   due at the earlier of two instants, each computed from the firing
   that set it, and when both fall due the probe runs first:
   - the next resend of [frame], every 40 ms, for a remote Send
     ([retransmit]); the receiving kernel suppresses duplicates;
   - the next probe, every 500 ms. It fails the transaction with
     Timeout once [dst_addr] is unreachable or the probe budget is
     spent, and otherwise renews the timeout, so a server legitimately
     busy with the transaction (a long MoveTo) does not abort its
     sender. A locally submitted transaction that a server forwarded
     off this host has no retransmission — local delivery loses no
     frames, but the forward made the reply leg lossy — so its probes
     resend [frame]; the target host's record of the sender replays a
     lost reply, however late, or drops the copy while the request is
     still served. *)
let arm_recovery host ~txn pending ~dst_addr ~retransmit frame =
  Engine.cancel host.domain.engine pending.p_timer;
  let now = Engine.now host.domain.engine in
  (* [| next resend; next probe |]: a float array stores both unboxed. *)
  let due =
    [|
      (if retransmit then now +. Calibration.retransmit_interval_ms
       else infinity);
      now +. Calibration.ipc_timeout_ms;
    |]
  in
  let rec fire () =
    let now = Engine.now host.domain.engine in
    let probe = due.(1) = now in
    if probe then pending.p_probes <- pending.p_probes + 1;
    if
      probe
      && not
           (target_host_reachable host dst_addr
           && pending.p_probes < max_timeout_probes)
    then fail_pending host ~txn (Ipc_error Timeout)
    else begin
      if probe then begin
        due.(1) <- now +. Calibration.ipc_timeout_ms;
        if not retransmit then begin
          report host Forward_recovery_probe txn pending.p_probes 0;
          Ethernet.transmit host.domain.net frame
        end
      end;
      if due.(0) = now then begin
        report host Retransmit_probe txn 0 0;
        Ethernet.transmit host.domain.net frame;
        due.(0) <- now +. Calibration.retransmit_interval_ms
      end;
      Engine.due.at <- Float.min due.(0) due.(1);
      pending.p_timer <- Engine.timer_due host.domain.engine fire
    end
  in
  Engine.due.at <- Float.min due.(0) due.(1);
  pending.p_timer <- Engine.timer_due host.domain.engine fire

(* --- the IPC primitives --- *)

(* Block in a kernel call that fails by raising [Ipc_error]. *)
let block_ipc register =
  match Proc.block register with
  | v -> Ok v
  | exception Ipc_error e -> Error e

(* Block a Send on its reply, once its transaction is set up. *)
let await_reply proc =
  match Proc.await proc.blocker with
  | v -> Ok v
  | exception Ipc_error e -> Error e

(* Register [proc]'s transaction [txn] under the key it keeps, its
   sender in state [sender]. [buffer] is what the sender exposes to
   MoveTo/MoveFrom meanwhile. Whatever wakes the sender retires the
   record. *)
let register_pending proc ~txn buffer sender =
  proc.wait.blocked_on <- txn;
  let pending =
    {
      p_sender = sender;
      p_buffer = buffer;
      p_timer = Engine.no_timer;
      p_probes = 0;
    }
  in
  Hashtbl.replace proc.proc_host.pendings txn pending;
  pending

(* The remote leg of Send: put the request on the wire towards
   [dst_addr], arm its timer, and block. *)
let send_remote proc ?buffer ~dst_addr ~target msg =
  charge proc Calibration.small_packet_send_cpu;
  let host = proc.proc_host in
  let txn = fresh_txn host.domain in
  let pending = register_pending proc ~txn buffer Sending in
  let frame = request_frame host ~dst_addr ~txn ~sender:proc.pid ~target msg in
  Ethernet.transmit host.domain.net frame;
  arm_recovery host ~txn pending ~dst_addr ~retransmit:true frame;
  await_reply proc

(* [send proc target msg] implements the Send primitive: blocks the
   calling fiber until the target (or whoever the message is forwarded
   to) replies. [buffer], if given, is the memory the sender exposes to
   MoveTo/MoveFrom for the duration of the transaction. *)
let send proc ?buffer target msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  Vsim.Stats.Counter.incr d.ipc_transactions;
  report_msg host Send (Pid.to_int proc.pid) (Pid.to_int target) 0 msg;
  match live_process d target with
  | target_proc when target_proc.proc_host == host ->
      charge proc Calibration.local_ipc_leg_cpu;
      if not target_proc.proc_alive then Error Nonexistent_process
      else begin
        let txn = fresh_txn d in
        ignore (register_pending proc ~txn buffer Sending : 'm pending);
        dispatch_local_request host ~txn ~sender:proc.pid ~target_proc msg;
        await_reply proc
      end
  | target_proc ->
      send_remote proc ?buffer ~dst_addr:target_proc.proc_host.addr ~target msg
  | exception Not_found -> (
      (* No live process under this pid. If its logical host was retired
         by a crash, the kernel cannot know that authoritatively (no
         liveness oracle): the request goes on the wire to the pid's
         last-known address and fails by timeout or by a Nack from the
         restarted incarnation. A pid of the local host's own history —
         or of a never-issued logical host — is refused directly. *)
      match Hashtbl.find d.retired_logical_hosts (Pid.logical_host target) with
      | dst_addr when dst_addr <> host.addr ->
          send_remote proc ?buffer ~dst_addr ~target msg
      | _ | (exception Not_found) -> Error Nonexistent_process)

(* [receive proc] blocks until a message arrives; returns it with the
   sender's pid. All interactive traffic is taken before bulk; with no
   admission hook there is only the one queue. *)
let receive proc =
  check_alive proc;
  let ((_, sender) as delivery) =
    if not (Queue.is_empty proc.queue) then Queue.take proc.queue
    else
      match proc.admission with
      | Some ad when not (Queue.is_empty ad.ad_bulk) -> Queue.take ad.ad_bulk
      | Some _ | None ->
          proc.wait.blocked_on <- 0;
          Proc.await proc.blocker
  in
  report proc.proc_host Receive (Pid.to_int proc.pid) (Pid.to_int sender) 0;
  delivery

(* [reply proc ~to_ msg] completes the transaction with blocked sender
   [to_]. *)
let reply proc ~to_ msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  let key = serving_key ~sender:to_ ~receiver:proc.pid in
  match served host key with
  | exception Not_found -> Error Not_awaiting_reply
  | txn -> (
      Hashtbl.remove host.serving key;
      report host Reply (Pid.to_int proc.pid) (Pid.to_int to_) 0;
      match live_process d to_ with
      | exception Not_found ->
          Ok () (* sender died while blocked; nothing to resume *)
      | sender_proc when sender_proc.proc_host == host ->
          charge proc Calibration.local_ipc_leg_cpu;
          resume_pending host ~txn (msg, proc.pid);
          Ok ()
      | sender_proc ->
          charge proc Calibration.small_packet_send_cpu;
          reply_remote host ~txn ~sender:to_ ~replier:proc.pid
            ~dst:sender_proc.proc_host.addr msg;
          Ok ())

(* [forward proc ~from_ ~to_ msg] passes the transaction on: [to_] sees
   [msg] as if [from_] had sent it directly, and will reply straight to
   [from_]. This is the kernel mechanism the name-handling protocol's
   multi-server name interpretation rides on (§5.4). *)
let forward proc ~from_ ~to_ msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  let key = serving_key ~sender:from_ ~receiver:proc.pid in
  match served host key with
  | exception Not_found -> Error Not_awaiting_reply
  | txn -> (
      Hashtbl.remove host.serving key;
      report_msg host Forward (Pid.to_int proc.pid) (Pid.to_int from_)
        (Pid.to_int to_) msg;
      match live_process d to_ with
      | exception Not_found ->
          (* Target gone: fail the original sender's transaction. *)
          (match live_process d from_ with
          | sender_proc ->
              fail_pending sender_proc.proc_host ~txn
                (Ipc_error Nonexistent_process)
          | exception Not_found -> ());
          Error Nonexistent_process
      | target_proc when target_proc.proc_host == host ->
          charge proc Calibration.local_ipc_leg_cpu;
          dispatch_local_request host ~txn ~sender:from_ ~target_proc msg;
          Ok ()
      | target_proc ->
          charge proc Calibration.small_packet_send_cpu;
          let dst_addr = target_proc.proc_host.addr in
          let frame =
            request_frame host ~dst_addr ~txn ~sender:from_ ~target:to_ msg
          in
          Ethernet.transmit d.net frame;
          (* A sender on this very host submitted the transaction via
             the local path, which arms no timer; now that the
             transaction has left the host, give it the slow recovery
             chain, replacing any chain an earlier forward gave it.
             Remote-origin senders already retransmit and time out from
             their own host. *)
          (match Hashtbl.find host.pendings txn with
          | pending ->
              arm_recovery host ~txn pending ~dst_addr ~retransmit:false frame
          | exception Not_found -> ());
          Ok ())

(* --- admission control (overload protection) --- *)

(* Install (or replace) the admission hook on [pid]. The kernel owns
   the mechanism only: every local-dispatch request to [pid] is put to
   [decide], which sorts it onto the interactive or bulk lane or sheds
   it with a kernel-level reply. Replacing a live hook keeps the bulk
   queue and counters — a policy change mid-run does not lose admitted
   work. *)
let set_admission d pid decide =
  match find_process d pid with
  | None -> ()
  | Some proc -> (
      match proc.admission with
      | Some ad -> ad.ad_decide <- decide
      | None ->
          proc.admission <-
            Some
              {
                ad_decide = decide;
                ad_bulk = Queue.create ();
                ad_admitted = 0;
                ad_shed = 0;
              };
          (* A server worth admission-protecting is a server whose
             queue depth is worth a trace. *)
          let label =
            Fmt.str "server/%s/%a/queue" proc.proc_host.host_name Pid.pp pid
          in
          d.tel_watched <- (label, pid) :: d.tel_watched)

(* Remove the hook; admitted bulk work drains back into the main queue
   so nothing already accepted is lost. *)
let clear_admission d pid =
  match find_process d pid with
  | None -> ()
  | Some proc -> (
      match proc.admission with
      | None -> ()
      | Some ad ->
          Queue.transfer ad.ad_bulk proc.queue;
          proc.admission <- None;
          d.tel_watched <- List.filter (fun (_, p) -> p <> pid) d.tel_watched)

(* [(admitted, shed)] since the hook was installed; [(0, 0)] without
   one. *)
let admission_counters d pid =
  match find_process d pid with
  | Some { admission = Some ad; _ } -> (ad.ad_admitted, ad.ad_shed)
  | _ -> ((0, 0) : int * int)

(* --- MoveTo / MoveFrom --- *)

let pages_of_bytes len =
  let page = Calibration.bulk_packet_bytes in
  max 1 ((len + page - 1) / page)

(* Stream [data] from [src_host] as paced bulk packets; [mk_packet]
   builds each wire packet from (seq, last, chunk). The per-packet send
   CPU paces the stream, reproducing the host-limited MoveTo throughput
   of §3.1. *)
let stream_chunks src_host ~dst_addr data mk_packet =
  let d = src_host.domain in
  let page = Calibration.bulk_packet_bytes in
  let len = Bytes.length data in
  let n = pages_of_bytes len in
  let now = Engine.now d.engine in
  for i = 0 to n - 1 do
    let at = now +. (float_of_int (i + 1) *. Calibration.bulk_packet_send_cpu) in
    Engine.schedule_at d.engine at (fun () ->
        if src_host.host_up then begin
          let off = i * page in
          let chunk_len = min page (len - off) in
          let chunk = Bytes.sub data off chunk_len in
          transmit src_host ~dst:(Ethernet.Unicast dst_addr)
            ~payload_bytes:(control_payload_bytes + chunk_len)
            (mk_packet ~seq:i ~last:(i = n - 1) ~chunk)
        end)
  done

(* The buffer a sender on this host exposed for transaction [txn], if
   it holds [len] bytes. *)
let exposed_buffer host ~txn ~len =
  match Hashtbl.find host.pendings txn with
  | exception Not_found -> Error Not_awaiting_reply
  | { p_buffer = Some buf; _ } when len <= Bytes.length buf -> Ok buf
  | _ -> Error Bad_buffer

(* Block [proc] on move [mv] until its data or ack arrives, failing it
   with Timeout after [ipc_timeout_ms]; [start] puts the move's request
   on the wire once the move is registered. *)
let await_move proc ~mv ~len start =
  let host = proc.proc_host in
  block_ipc (fun k ->
      proc.wait.blocked_on <- -mv;
      let op =
        { mv_mover = k; mv_buf = Buffer.create len; mv_timer = Engine.no_timer }
      in
      Hashtbl.replace host.moves mv op;
      start ();
      op.mv_timer <-
        Engine.timer ~delay:Calibration.ipc_timeout_ms host.domain.engine
          (fun () -> finish_move host ~mv (Error (Ipc_error Timeout))))

(* [move_from proc ~sender ~len] reads [len] bytes from the buffer the
   blocked sender exposed. The caller must currently be serving
   [sender]. *)
let move_from proc ~sender ~len =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  match served host (serving_key ~sender ~receiver:proc.pid) with
  | exception Not_found -> Error Not_awaiting_reply
  | txn -> (
      report host Move_from (Pid.to_int proc.pid) (Pid.to_int sender) len;
      match find_process d sender with
      | None -> Error Nonexistent_process
      | Some sender_proc when sender_proc.proc_host == host -> (
          match exposed_buffer host ~txn ~len with
          | Error _ as e -> e
          | Ok buf ->
              charge proc
                (float_of_int (pages_of_bytes len)
                *. Calibration.local_move_page_cpu);
              Ok (Bytes.sub buf 0 len))
      | Some sender_proc ->
          let remote = sender_proc.proc_host in
          let mv = fresh_mv d in
          charge proc Calibration.small_packet_send_cpu;
          await_move proc ~mv ~len (fun () ->
              transmit host ~dst:(Ethernet.Unicast remote.addr)
                ~payload_bytes:control_payload_bytes
                (Move_request { txn; mv; mover_addr = host.addr; len })))

(* [move_to proc ~sender data] writes [data] into the blocked sender's
   exposed buffer. *)
let move_to proc ~sender data =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  let len = Bytes.length data in
  match served host (serving_key ~sender ~receiver:proc.pid) with
  | exception Not_found -> Error Not_awaiting_reply
  | txn -> (
      report host Move_to (Pid.to_int proc.pid) (Pid.to_int sender) len;
      match find_process d sender with
      | None -> Error Nonexistent_process
      | Some sender_proc when sender_proc.proc_host == host -> (
          match exposed_buffer host ~txn ~len with
          | Error _ as e -> e
          | Ok buf ->
              charge proc
                (float_of_int (pages_of_bytes len)
                *. Calibration.local_move_page_cpu);
              Bytes.blit data 0 buf 0 len;
              Ok ())
      | Some sender_proc ->
          let remote = sender_proc.proc_host in
          let mv = fresh_mv d in
          let page = Calibration.bulk_packet_bytes in
          let n = pages_of_bytes len in
          (* The mover's own fiber paces the outgoing packets (it is the
             mover's CPU that limits throughput), then blocks for the
             completion ack. *)
          for i = 0 to n - 1 do
            charge proc Calibration.bulk_packet_send_cpu;
            let off = i * page in
            let chunk_len = min page (len - off) in
            transmit host ~dst:(Ethernet.Unicast remote.addr)
              ~payload_bytes:(control_payload_bytes + chunk_len)
              (Move_to_data
                 {
                   txn;
                   mv;
                   mover_addr = host.addr;
                   seq = i;
                   last = i = n - 1;
                   data = Bytes.sub data off chunk_len;
                 })
          done;
          Result.map ignore (await_move proc ~mv ~len:0 ignore))

(* --- service naming: SetPid / GetPid (§4.2) --- *)

let set_pid host ~service pid scope =
  let entries =
    match Hashtbl.find_opt host.services service with Some l -> l | None -> []
  in
  (* A new registration for the same (service, scope) replaces the old
     one; Local and Remote registrations may coexist (§4.2). *)
  let entries = List.filter (fun (_, sc) -> sc <> scope) entries in
  Hashtbl.replace host.services service ((pid, scope) :: entries)

let local_service_lookup host ~service ~origin =
  match Hashtbl.find_opt host.services service with
  | None -> None
  | Some entries ->
      List.find_opt (fun (_, sc) -> Service.visible ~registered:sc ~origin) entries
      |> Option.map fst

(* --- replicated services: a logical service id bound to a group --- *)

let register_service_group d ~service ~group =
  (* The only randomness replica selection consumes: the round-robin
     cursor's starting point. Drawn here, once, so a domain that never
     registers a group draws nothing and replays bit-identically. *)
  let cursor = Vsim.Prng.int d.domain_prng 1024 in
  Hashtbl.replace d.service_groups service
    {
      sg_group = group;
      sg_cursor = cursor;
      sg_log = Queue.create ();
      sg_trim_hw = Hashtbl.create 4;
    }

let clear_service_group d ~service = Hashtbl.remove d.service_groups service

let service_group d ~service =
  Option.map (fun sg -> sg.sg_group) (Hashtbl.find_opt d.service_groups service)

let local_group_members host ~group =
  match Hashtbl.find_opt host.group_members group with Some l -> l | None -> []

(* Fold [f pid addr] over the live members of a group visible from
   [requester]: on an up host, not partitioned away, process alive. Only
   the hosts subscribed to the group on the wire are visited — the
   multicast membership that [join_group], [leave_group] and
   [crash_host] keep in step with [group_members] — so a lookup costs
   O(members), not O(hosts). *)
let fold_reachable_members d ~requester ~group f init =
  Ethernet.fold_group d.net group
    (fun addr acc ->
      match Hashtbl.find_opt d.all_hosts addr with
      | Some h when h.host_up && Ethernet.reachable d.net requester addr ->
          List.fold_left
            (fun acc pid ->
              match Hashtbl.find_opt h.processes (Pid.local_pid pid) with
              | Some p when p.proc_alive -> f pid addr acc
              | Some _ | None -> acc)
            acc
            (local_group_members h ~group)
      | Some _ | None -> acc)
    init

(* The reachable members, sorted by (address, local pid) so every host
   enumerates them identically. *)
let reachable_group_members d ~requester ~group =
  fold_reachable_members d ~requester ~group
    (fun pid addr acc -> (pid, addr) :: acc)
    []
  |> List.sort (fun (p1, a1) (p2, a2) ->
         if a1 <> a2 then Int.compare a1 a2
         else Int.compare (Pid.local_pid p1) (Pid.local_pid p2))

let service_group_members d ~requester ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> []
  | Some sg ->
      List.map fst (reachable_group_members d ~requester ~group:sg.sg_group)

(* Past the cap an append drops the oldest entry. Each origin's seqs
   rise in log order, so the dropped seq is that origin's new trim
   mark: a catch-up can tell when replay alone no longer covers a
   member. *)
let sg_log_cap = 1024

let log_group_write d ~service ~origin ~seq msg =
  match Hashtbl.find_opt d.service_groups service with
  | None -> ()
  | Some sg ->
      Queue.add (origin, seq, msg) sg.sg_log;
      if Queue.length sg.sg_log > sg_log_cap then begin
        let origin, seq, _ = Queue.take sg.sg_log in
        Hashtbl.replace sg.sg_trim_hw origin seq
      end

let group_write_log d ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> []
  | Some sg -> List.rev (Queue.fold (fun acc e -> e :: acc) [] sg.sg_log)

let group_write_trimmed d ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> []
  | Some sg ->
      Hashtbl.fold (fun origin seq acc -> (origin, seq) :: acc) sg.sg_trim_hw []
      |> List.sort compare

(* GetPid on a replicated service picks round-robin among the live
   reachable members, in address order: a pure function of the cursor,
   so a seeded run replays the identical choices. [None] when the
   service has no registered group or no live reachable member; the
   cursor advances only on a pick. *)
let balanced_choice host ~service =
  let d = host.domain in
  match Hashtbl.find_opt d.service_groups service with
  | None -> None
  | Some sg -> (
      match reachable_group_members d ~requester:host.addr ~group:sg.sg_group with
      | [] -> None
      | members ->
          let n = List.length members in
          let pid = fst (List.nth members (((sg.sg_cursor mod n) + n) mod n)) in
          sg.sg_cursor <- sg.sg_cursor + 1;
          report host Balancer_pick service (Pid.to_int pid) n;
          Some pid)

let get_pid proc ~service scope =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  count host Get_pid;
  charge proc Calibration.getpid_check_cpu;
  match local_service_lookup host ~service ~origin:`Local_query with
  | Some pid when alive d pid -> Some pid
  | _ when scope = Service.Local -> None
  | _ -> (
      match balanced_choice host ~service with
      | Some _ as pick ->
          count host Get_pid_balanced;
          pick
      | None ->
          (* Broadcast query; first responder wins (§4.2). *)
          charge proc Calibration.small_packet_send_cpu;
          let txn = fresh_txn d in
          Proc.block (fun k ->
              proc.wait.blocked_on <- txn;
              transmit host ~dst:Ethernet.Broadcast
                ~payload_bytes:control_payload_bytes
                (Getpid_query { txn; requester_addr = host.addr; service });
              let deadline =
                Engine.timer ~delay:Calibration.getpid_timeout_ms d.engine
                  (fun () -> settle_getpid host ~txn (Ok None))
              in
              Hashtbl.replace host.getpid_waits txn
                { gw_asker = k; gw_deadline = deadline }))

(* --- process groups and multicast Send (§2.3, §7) --- *)

let create_group d =
  let g = d.next_group in
  d.next_group <- g + 1;
  g

let join_group host ~group pid =
  let members =
    match Hashtbl.find_opt host.group_members group with Some l -> l | None -> []
  in
  if not (List.exists (Pid.equal pid) members) then begin
    Hashtbl.replace host.group_members group (pid :: members);
    Ethernet.join_group host.domain.net ~group ~addr:host.addr
  end

let leave_group host ~group pid =
  match Hashtbl.find_opt host.group_members group with
  | None -> ()
  | Some members ->
      let members = List.filter (fun p -> not (Pid.equal p pid)) members in
      if members = [] then begin
        Hashtbl.remove host.group_members group;
        Ethernet.leave_group host.domain.net ~group ~addr:host.addr
      end
      else Hashtbl.replace host.group_members group members

(* Put [sender]'s transaction [txn] to every member of [group]: members
   on [host] are delivered one local IPC leg later (the wire does not
   loop frames back), the rest by one multicast frame. *)
let multicast_request host ~group ~sender ~txn msg =
  let d = host.domain in
  List.iter
    (fun member_pid ->
      match find_process d member_pid with
      | Some member when member.proc_host == host ->
          Engine.schedule ~delay:Calibration.local_ipc_leg_cpu d.engine
            (fun () ->
              deliver ~served:(lnot txn) ~sender member member.queue msg)
      | Some _ | None -> ())
    (local_group_members host ~group);
  transmit host ~dst:(Ethernet.Multicast group)
    ~payload_bytes:(message_payload_bytes d msg)
    (Group_request { txn; sender; group; msg })

(* [send_group proc ~group msg] multicasts to every member of the group
   and blocks for the first reply, V's group-send semantics. It blocks
   as Send does, on its process's blocker: the multicast's local legs
   are scheduled, not run, so nothing answers before it blocks. *)
let send_group proc ~group msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  Vsim.Stats.Counter.incr d.ipc_transactions;
  report host Group_send (Pid.to_int proc.pid) group 0;
  charge proc Calibration.small_packet_send_cpu;
  let txn = fresh_txn d in
  let pending = register_pending proc ~txn None Sending in
  multicast_request host ~group ~sender:proc.pid ~txn msg;
  pending.p_timer <-
    Engine.timer ~delay:Calibration.getpid_timeout_ms d.engine (fun () ->
        fail_pending host ~txn (Ipc_error No_reply));
  await_reply proc

(* [forward_group proc ~from_ ~group msg] forwards the transaction of
   blocked sender [from_] to every member of a process group; whichever
   member replies first completes the transaction (later replies are
   dropped at the sender). This is the §7 mechanism by which "a single
   context could be implemented transparently by a group of servers". *)
let forward_group proc ~from_ ~group msg =
  check_alive proc;
  let host = proc.proc_host in
  let key = serving_key ~sender:from_ ~receiver:proc.pid in
  match served host key with
  | exception Not_found -> Error Not_awaiting_reply
  | txn ->
      Hashtbl.remove host.serving key;
      report host Forward_group (Pid.to_int proc.pid) (Pid.to_int from_) group;
      charge proc Calibration.small_packet_send_cpu;
      multicast_request host ~group ~sender:from_ ~txn msg;
      (* A sender on this host came by the local path, which arms no
         timer: its one timer gets the deadline a remote sender's probes
         reach, so a reply cancels it. *)
      (match Hashtbl.find host.pendings txn with
      | pending ->
          let engine = host.domain.engine in
          Engine.cancel engine pending.p_timer;
          pending.p_timer <-
            Engine.timer engine
              ~delay:(float max_timeout_probes *. Calibration.ipc_timeout_ms)
              (fun () -> fail_pending host ~txn (Ipc_error Timeout))
      | exception Not_found -> ());
      Ok ()

(* --- packet handling --- *)

(* A request frame at [host], once its receive CPU is spent. *)
let request_arrived host (frame : 'm packet Ethernet.frame) =
  match frame.Ethernet.payload with
  | Request { txn; sender; target; msg } when host.host_up -> (
      let al = alien host sender in
      match al.al_reply with
      | Some reply when al.al_txn = txn ->
          (* A retransmission of an answered request: the reply frame
             was lost; replay it. *)
          Ethernet.transmit host.domain.net reply
      | Some _ | None -> (
          match Hashtbl.find host.processes (Pid.local_pid target) with
          | target_proc
            when target_proc.proc_alive
                 && Pid.logical_host target = host.logical_host ->
              if txn > al.al_txn then begin
                al.al_txn <- txn;
                al.al_reply <- None;
                dispatch_local_request host ~txn ~sender ~target_proc msg
              end
              (* else a duplicate the server is still working on, or a
                 copy older than the sender's latest request here: V's
                 rule drops both *)
          | _ | (exception Not_found) ->
              (* Never deliverable — or the serving process died
                 mid-transaction and a retransmission probed it: tell
                 the sender. A request addressed to a previous
                 incarnation of this host nacks Timeout, not
                 Nonexistent_process: this incarnation knows nothing
                 about the old one's pids, only that the transaction can
                 never complete (satellites of the crash were lost with
                 it). *)
              let reason =
                if Pid.logical_host target <> host.logical_host then Timeout
                else Nonexistent_process
              in
              transmit host ~dst:(Ethernet.Unicast frame.Ethernet.src)
                ~payload_bytes:control_payload_bytes
                (Nack { txn; reason })))
  | _ -> ()

(* A reply frame at [host], once its receive CPU is spent. *)
let reply_arrived host (frame : 'm packet Ethernet.frame) =
  match frame.Ethernet.payload with
  | Reply_pkt { txn; replier; msg } when host.host_up ->
      resume_pending host ~txn (msg, replier)
  | _ -> ()

(* The two message-bearing arrivals a transaction always takes capture
   the host and the frame, and read the packet's fields when they
   run. *)
let handle_packet host (frame : 'm packet Ethernet.frame) =
  let d = host.domain in
  match frame.Ethernet.payload with
  | Request { msg; _ } ->
      after_remote_recv d msg (fun () -> request_arrived host frame)
  | Reply_pkt { msg; _ } ->
      after_remote_recv d msg (fun () -> reply_arrived host frame)
  | Nack { txn; reason } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          if host.host_up then fail_pending host ~txn (Ipc_error reason))
  | Getpid_query { txn; requester_addr; service } ->
      Engine.schedule
        ~delay:(Calibration.small_packet_recv_cpu +. Calibration.getpid_check_cpu)
        d.engine
        (fun () ->
          if host.host_up then
            match local_service_lookup host ~service ~origin:`Remote_query with
            | Some pid when alive d pid ->
                transmit host ~dst:(Ethernet.Unicast requester_addr)
                  ~payload_bytes:control_payload_bytes
                  (Getpid_reply { txn; pid })
            | Some _ | None -> ())
  | Getpid_reply { txn; pid } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          if host.host_up then settle_getpid host ~txn (Ok (Some pid)))
  | Move_request { txn; mv; mover_addr; len } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          if host.host_up then
            match exposed_buffer host ~txn ~len with
            | Ok buf ->
                stream_chunks host ~dst_addr:mover_addr (Bytes.sub buf 0 len)
                  (fun ~seq:_ ~last ~chunk -> Move_data { mv; last; data = chunk })
            | Error _ ->
                transmit host ~dst:(Ethernet.Unicast mover_addr)
                  ~payload_bytes:control_payload_bytes
                  (Move_ack { mv; outcome = Error Bad_buffer }))
  | Move_data { mv; last; data } -> (
      match Hashtbl.find_opt host.moves mv with
      | None -> ()
      | Some op ->
          Buffer.add_bytes op.mv_buf data;
          if last then begin
            (* The data is all in, so the timeout stops now; the move
               stays in [moves] until its mover wakes. *)
            Engine.cancel d.engine op.mv_timer;
            Engine.schedule ~delay:Calibration.bulk_packet_recv_cpu d.engine
              (fun () ->
                if host.host_up then
                  finish_move host ~mv (Ok (Buffer.to_bytes op.mv_buf)))
          end)
  | Move_to_data { txn; mv; mover_addr; seq; last; data } -> (
      match Hashtbl.find_opt host.pendings txn with
      | Some { p_buffer = Some buf; _ }
        when (seq * Calibration.bulk_packet_bytes) + Bytes.length data
             <= Bytes.length buf ->
          Bytes.blit data 0 buf (seq * Calibration.bulk_packet_bytes)
            (Bytes.length data);
          if last then
            Engine.schedule ~delay:Calibration.bulk_packet_recv_cpu d.engine
              (fun () ->
                if host.host_up then
                  transmit host ~dst:(Ethernet.Unicast mover_addr)
                    ~payload_bytes:control_payload_bytes
                    (Move_ack { mv; outcome = Ok () }))
      | Some _ | None ->
          if last then
            transmit host ~dst:(Ethernet.Unicast mover_addr)
              ~payload_bytes:control_payload_bytes
              (Move_ack { mv; outcome = Error Bad_buffer }))
  | Move_ack { mv; outcome } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          finish_move host ~mv
            (match outcome with
            | Ok () -> Ok Bytes.empty
            | Error e -> Error (Ipc_error e)))
  | Group_request { txn; sender; group; msg } ->
      after_remote_recv d msg (fun () ->
          if host.host_up then begin
            List.iter
              (fun member_pid ->
                match Hashtbl.find_opt host.processes (Pid.local_pid member_pid) with
                | Some member when member.proc_alive ->
                    deliver ~served:(lnot txn) ~sender member member.queue msg
                | Some _ | None -> ())
              (local_group_members host ~group)
          end)

(* --- domain and host lifecycle --- *)

(* [hosts_hint] presizes the domain-wide host tables (only — per-host
   tables keep their defaults, since a hashtable's initial bucket count
   shapes its fold order and the experiments' replay depends on it).
   Every domain-level fold sorts its result before use, so the hint is
   pure capacity; large soaks (e12's 10k hosts) pass it to avoid
   rehash-storms at boot. *)
let create_domain ?(seed = 42) ?(hosts_hint = 16) ~cost engine net =
  let d =
    {
      engine;
      net;
      cost;
      next_txn = 1;
      next_mv = 1;
      next_logical_host = 1;
      next_group = 1;
      logical_hosts = Hashtbl.create hosts_hint;
      retired_logical_hosts = Hashtbl.create 16;
      all_hosts = Hashtbl.create hosts_hint;
      service_groups = Hashtbl.create 8;
      domain_prng = Vsim.Prng.create ~seed;
      domain_obs = None;
      trace_of = (fun _ -> 0);
      ipc_transactions = Vsim.Stats.Counter.create "ipc-transactions";
      tel_groups = Hashtbl.create 64;
      tel_watched = [];
    }
  in
  d

let ipc_transaction_count d = Vsim.Stats.Counter.value d.ipc_transactions

let fresh_logical_host d =
  let lh = d.next_logical_host in
  if lh > Pid.max_logical_host then failwith "Kernel: logical host space exhausted";
  d.next_logical_host <- lh + 1;
  lh

let boot_host d ~name addr =
  if Hashtbl.mem d.all_hosts addr then
    invalid_arg "Kernel.boot_host: address in use";
  let host =
    {
      domain = d;
      addr;
      host_name = name;
      logical_host = fresh_logical_host d;
      host_up = true;
      processes = Hashtbl.create 16;
      services = Hashtbl.create 8;
      serving = Hashtbl.create 16;
      pendings = Hashtbl.create 16;
      moves = Hashtbl.create 8;
      getpid_waits = Hashtbl.create 8;
      aliens = Hashtbl.create 16;
      group_members = Hashtbl.create 8;
      host_prng = Vsim.Prng.split d.domain_prng;
      counts = Array.make (Array.length ops) 0;
      ev = { ev_host = name; kind = Send; a = 0; b = 0; c = 0; trace = 0 };
    }
  in
  Hashtbl.replace d.all_hosts addr host;
  Hashtbl.replace d.logical_hosts host.logical_host host;
  Ethernet.attach d.net addr (fun frame -> handle_packet host frame);
  if telemetry_enabled d then register_telemetry_host d host;
  host

let host_of_addr d addr = Hashtbl.find_opt d.all_hosts addr

let hosts d =
  Hashtbl.fold (fun _ h acc -> h :: acc) d.all_hosts []
  |> List.sort (fun a b -> compare a.addr b.addr)

(* Crash a host: every process dies, every table is cleared, the wire
   stops delivering to it. Pids minted on the dead logical host become
   permanently invalid (a restarted host gets a fresh logical host id,
   modelling V's avoidance of pid reuse). *)
let crash_host host =
  if host.host_up then begin
    let d = host.domain in
    report host Crash 0 0 0;
    host.host_up <- false;
    Ethernet.set_host_up d.net host.addr false;
    Hashtbl.remove d.logical_hosts host.logical_host;
    Hashtbl.replace d.retired_logical_hosts host.logical_host host.addr;
    let procs = Hashtbl.fold (fun _ p acc -> p :: acc) host.processes [] in
    (* Each abort retires the record its process waits in and cancels
       its timer, so the crash leaves no machinery ticking for a table
       that no longer exists. *)
    List.iter
      (fun proc ->
        proc.proc_alive <- false;
        abort_blocked proc (Proc.Killed "host crash"))
      procs;
    Hashtbl.reset host.processes;
    Hashtbl.reset host.services;
    Hashtbl.reset host.serving;
    Hashtbl.reset host.pendings;
    Hashtbl.reset host.moves;
    Hashtbl.reset host.getpid_waits;
    Hashtbl.reset host.aliens;
    Hashtbl.iter
      (fun group _ -> Ethernet.leave_group d.net ~group ~addr:host.addr)
      host.group_members;
    Hashtbl.reset host.group_members
  end

let restart_host host =
  if host.host_up then invalid_arg "Kernel.restart_host: host is up";
  let d = host.domain in
  report host Restart 0 0 0;
  host.logical_host <- fresh_logical_host d;
  host.host_up <- true;
  Hashtbl.replace d.logical_hosts host.logical_host host;
  Ethernet.set_host_up d.net host.addr true

