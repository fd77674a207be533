(* Cost-model constants, in simulated milliseconds.

   The constants are calibrated ONCE against the kernel IPC figures the
   paper reports for 10 MHz SUN workstations on 3 Mbit Ethernet
   (Cheriton & Mann §3.1 and §6, and the SOSP'83 V kernel paper for the
   local message transaction):

     - local Send-Receive-Reply                        0.77 ms
     - remote Send-Receive-Reply, 32-byte messages     2.56 ms
     - MoveTo of 64 KB (data already buffered)         338  ms
     - Open, current context, server local             1.21 ms
     - Open, current context, server remote            3.70 ms
     - Open via context prefix, server local           5.14 ms
     - Open via context prefix, server remote          7.69 ms

   Every other number the benchmark harness prints is then a prediction
   of the model, not a separate fit. EXPERIMENTS.md records the derivation
   of each constant. *)

type network = {
  name : string;
  bandwidth_bps : float;  (** raw signalling rate *)
  header_bytes : int;  (** Ethernet + inter-kernel protocol header *)
  propagation_ms : float;  (** end-to-end propagation + preamble *)
}

let ethernet_3mbit =
  { name = "3Mb Ethernet"; bandwidth_bps = 3.0e6; header_bytes = 64; propagation_ms = 0.01 }

let ethernet_10mbit =
  { name = "10Mb Ethernet"; bandwidth_bps = 1.0e7; header_bytes = 64; propagation_ms = 0.01 }

(* Store-and-forward latency charged each time a switch takes a frame
   off one link and queues it on the next: header inspection plus the
   output-port table walk. Only the switched fabric (Topology.Switched)
   pays it — the shared medium has no switches. The figure is an
   early-1990s cut-through LAN switch, scaled to the same 68000-class
   era as the host CPU charges. *)
let switch_forward_ms = 0.02

(* --- Host CPU charges (68000-class processors) --- *)

(* Kernel send-path CPU per small (message-sized) packet. *)
let small_packet_send_cpu = 0.51

(* Kernel receive-path CPU per small packet, including scheduling the
   destination process. *)
let small_packet_recv_cpu = 0.504

(* One leg (request or reply) of a purely local message transaction:
   0.77 ms round trip. *)
let local_ipc_leg_cpu = 0.385

(* Copying an appended segment (e.g. a CSname) into the receiving
   server: across the network / between local address spaces. Local
   delivery has no such charge: it passes segments within one machine,
   a cost already inside the 0.77 ms local transaction figure. *)
let segment_copy_remote_cpu = 0.66

(* Local MoveTo/MoveFrom memcpy per 512-byte page. *)
let local_move_page_cpu = 0.05

(* Bulk-transfer (MoveTo/MoveFrom) CPU per 512-byte data packet. The
   sender cost dominates the wire on 3 Mbit Ethernet, reproducing the
   paper's observation that program loading runs at host speed. *)
let bulk_packet_send_cpu = 2.64
let bulk_packet_recv_cpu = 2.0
let bulk_packet_bytes = 512

(* --- Naming-path CPU charges --- *)

(* Client stub: building the request message and processing the reply. *)
let client_stub_cpu = 0.20

(* Server-side common CSname header processing (the part of Open that is
   not server-specific). *)
let csname_common_cpu = 0.24

(* Context prefix server: parsing the '[prefix]' and rewriting the
   request before forwarding. Dominates the 3.94-3.99 ms additive cost
   the paper measures for prefixed Opens. *)
let prefix_parse_cpu = 3.55

(* Hash/table lookup of one name component in a directory that is
   already buffered. *)
let component_lookup_cpu = 0.12

(* GetPid broadcast: responder-side table check. *)
let getpid_check_cpu = 0.05

(* Fabricating one context-directory description record on demand
   (§5.6). *)
let descriptor_fabricate_cpu = 0.02

(* --- Storage --- *)

(* The paper's stream measurement assumes "a disk delivering a 512 byte
   page every 15 milliseconds". *)
let disk_page_ms = 15.0
let disk_page_bytes = 512

(* Kernel timeout used to detect unreachable hosts (retransmission
   budget exhausted). Value is generous; only failure paths see it. *)
let ipc_timeout_ms = 500.0

(* How long a broadcast GetPid (or group Send) waits for the first
   responder before giving up. *)
let getpid_timeout_ms = 20.0

(* How long a sending kernel waits before retransmitting an unanswered
   request packet. Receivers suppress duplicates and replay cached
   replies, so transactions are at-most-once even under loss. *)
let retransmit_interval_ms = 40.0
