(** The internet server: a V-kernel IP/TCP gateway (§6) whose TCP
    connections are temporary named objects, listed in a context
    directory next to files and terminals.

    Connections are simulated loopback endpoints: written data is echoed
    back by the "remote" after a WAN round trip — enough to exercise the
    naming and I/O paths. Connection names follow the external
    host:port convention. *)

module Kernel = Vkernel.Kernel

(** Simulated WAN round-trip (ms) for handshake and echo. *)
val wan_rtt_ms : float

type conn_state = Syn_sent | Established | Closed

val state_to_string : conn_state -> string

type t

val start : Vnaming.Vmsg.t Kernel.host -> t
val pid : t -> Vkernel.Pid.t
val valid_conn_name : string -> bool
val connection_state : t -> string -> conn_state option
