(** The flight recorder: a bounded, structured log of notable events —
    kernel sends/forwards/retransmission probes, frames lost, partitions
    and heals, balancer picks, replica fan-outs, injected faults — each
    stamped with the simulated time and the active trace id where the
    triggering request carried one.

    Disabled by default: when off, {!record} is one boolean test.
    Nothing here reads the simulation clock — callers pass [~at] — so
    runs are bit-identical with the recorder on or off. *)

type cat = Kernel | Net | Fault | Replica | Balancer | Client | Slo | Admission

type event = {
  seq : int;  (** monotonic, survives trimming: gaps reveal drops *)
  at : float;  (** simulated ms *)
  cat : cat;
  host : string;
  label : string;
  trace : int;  (** active trace id; 0 = none *)
}

type t

(** [create ()] makes a recorder, disabled, keeping at most [capacity]
    newest events (oldest trimmed in amortised halves).
    @raise Invalid_argument if [capacity < 2]. *)
val create : ?capacity:int -> unit -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** [record t ~at ~cat ~host ?trace label] appends an event. A no-op
    (one boolean test) when disabled. [trace] defaults to 0 (none). *)
val record :
  t -> at:float -> cat:cat -> host:string -> ?trace:int -> string -> unit

(** Stored events, oldest first. *)
val events : t -> event list

(** Events currently stored. *)
val count : t -> int

(** Events discarded by the bounded store's trim. *)
val dropped : t -> int

(** [set_on_drop t f] installs a hook called with each trim's drop
    count — how {!Hub} mirrors flight-recorder loss into a metric so a
    trimmed dump is detectable from the metrics artifact alone. *)
val set_on_drop : t -> (int -> unit) -> unit

(** [set_on_toggle t f] installs a hook called with the new flag at each
    {!set_enabled} — how the event stream keeps its mask of listening
    consumers current. *)
val set_on_toggle : t -> (bool -> unit) -> unit

val clear : t -> unit

(** [{dropped; events}] — a dump that lost its beginning says so. *)
val to_json : t -> Json.t

val pp_event : Format.formatter -> event -> unit

(** [pp ?limit] renders the newest [limit] (default: all stored) events,
    oldest first, plus a trailer when events have been dropped. *)
val pp : ?limit:int -> Format.formatter -> t -> unit
