(** Server overload protection: the policy half of admission control.

    The kernel supplies the mechanism — two queues per protected
    process, a kernel-level [Busy] rejection — via
    {!Vkernel.Kernel.set_admission}; this module supplies the policy:
    lane classification (resolution traffic vs bulk mutation), queue
    caps with bulk shed first, deadline-aware drop against the
    client-stamped operation deadline, and the retry-after hint each
    [Busy] reply carries.

    Coordinator-stamped replicated writes ([Vmsg.wseq]) are admitted
    unconditionally — shedding one at a member would open a permanent
    sequence gap there; replicated-write backpressure belongs at the
    coordinator ({!coordinator}).

    Everything is pure except {!install}/{!uninstall}. Off by default
    everywhere: nothing changes until a caller installs a config. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

type config = {
  queue_cap : int;
      (** total queued requests beyond which even interactive traffic
          is shed *)
  bulk_cap : int;
      (** total queued requests beyond which bulk traffic is shed;
          must not exceed [queue_cap] *)
  service_ms : float;
      (** modelled per-request service time; the queue-wait estimate
          is [depth * service_ms] *)
  retry_floor_ms : float;  (** no retry-after hint below this *)
}

(** [make ~service_ms ()] — defaults: caps 8 (bulk) / 16 (all),
    5ms hint floor.
    @raise Invalid_argument if [bulk_cap > queue_cap]. *)
val make :
  ?queue_cap:int ->
  ?bulk_cap:int ->
  ?retry_floor_ms:float ->
  service_ms:float ->
  unit ->
  config

(** Disk-backed storage server: a queued request is worth a disk page. *)
val file_server : unit -> config

(** Pure name server (context prefix / administrative domain server):
    a queued request is worth a prefix parse plus a component walk. *)
val name_server : unit -> config

(** Replica-set write coordinator: a queued request is worth a disk
    page plus a packet round-trip {e per member}. *)
val coordinator : replicas:int -> unit -> config

type lane = Interactive | Bulk

(** CSNH writes, I/O-protocol writes and whole-file loads are [Bulk];
    resolution, opens, reads and queries are [Interactive]. *)
val classify : Vnaming.Vmsg.t -> lane

val lane_to_string : lane -> string

(** The hint a shed at queue depth [depth] carries:
    [max retry_floor_ms (depth * service_ms)]. *)
val retry_after_ms : config -> depth:int -> float

(** The pure decision function; [install] wires it into the kernel. *)
val decide :
  config ->
  now:float ->
  depth:int ->
  Vnaming.Vmsg.t ->
  Vnaming.Vmsg.t Kernel.admission_verdict

(** Install the policy on a serving process (idempotent; replacing a
    live hook keeps queue and counters). *)
val install : Vnaming.Vmsg.t Kernel.domain -> Pid.t -> config -> unit

(** Remove the policy; queued bulk work drains back unharmed. *)
val uninstall : Vnaming.Vmsg.t Kernel.domain -> Pid.t -> unit

(** Protect a context prefix server (default config {!name_server}). *)
val protect_prefix_server :
  Vnaming.Vmsg.t Kernel.domain ->
  Vnaming.Prefix_server.t ->
  ?config:config ->
  unit ->
  unit

(** [(admitted, shed)] since installation; [(0, 0)] when none. *)
val counters : Vnaming.Vmsg.t Kernel.domain -> Pid.t -> int * int

(** Undelivered requests queued at the pid, both lanes. *)
val queue_depth : Vnaming.Vmsg.t Kernel.domain -> Pid.t -> int
