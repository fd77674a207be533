(** Cost-model constants, in simulated milliseconds.

    Calibrated once against the kernel IPC figures the paper reports for
    10 MHz SUN workstations on 3 Mbit Ethernet (Cheriton & Mann §3.1 and
    §6); every other number the benchmark harness prints is a prediction
    of the model. EXPERIMENTS.md records the derivation of each
    constant. *)

type network = {
  name : string;
  bandwidth_bps : float;  (** raw signalling rate *)
  header_bytes : int;  (** Ethernet + inter-kernel protocol header *)
  propagation_ms : float;  (** end-to-end propagation + preamble *)
}

val ethernet_3mbit : network
val ethernet_10mbit : network

(** Store-and-forward latency charged per switch hop in a
    {!Topology.Switched} fabric (header inspection + output-port
    lookup). The shared medium has no switches and never pays it. *)
val switch_forward_ms : float

(** {1 Host CPU charges (68000-class processors)} *)

(** Kernel send-path CPU per small (message-sized) packet. *)
val small_packet_send_cpu : float

(** Kernel receive-path CPU per small packet, including scheduling the
    destination process. *)
val small_packet_recv_cpu : float

(** One leg (request or reply) of a purely local message transaction. *)
val local_ipc_leg_cpu : float

(** Copying an appended segment (e.g. a CSname) into the receiving
    server, across the network / between local address spaces. *)
val segment_copy_remote_cpu : float

(** Local MoveTo/MoveFrom memcpy per 512-byte page. *)
val local_move_page_cpu : float

(** Bulk-transfer (MoveTo/MoveFrom) CPU per data packet. *)
val bulk_packet_send_cpu : float

val bulk_packet_recv_cpu : float
val bulk_packet_bytes : int

(** {1 Naming-path CPU charges} *)

(** Client stub: building the request message and processing the
    reply. *)
val client_stub_cpu : float

(** Server-side common CSname header processing. *)
val csname_common_cpu : float

(** Context prefix server: parsing the ['[prefix]'] and rewriting the
    request before forwarding. *)
val prefix_parse_cpu : float

(** Lookup of one name component in a buffered directory. *)
val component_lookup_cpu : float

(** GetPid broadcast: responder-side table check. *)
val getpid_check_cpu : float

(** Fabricating one context-directory description record on demand
    (§5.6). *)
val descriptor_fabricate_cpu : float

(** {1 Storage and timeouts} *)

val disk_page_ms : float
val disk_page_bytes : int

(** Kernel timeout used to detect unreachable hosts. *)
val ipc_timeout_ms : float

(** How long a broadcast GetPid (or group Send) waits for the first
    responder. *)
val getpid_timeout_ms : float

(** Interval before a sending kernel retransmits an unanswered request
    packet. *)
val retransmit_interval_ms : float
