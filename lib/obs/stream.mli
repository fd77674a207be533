(** The event stream: every site of every layer — kernel, wire, and the
    naming, run-time and fault layers above them — reports once, as one
    typed event; the timeline, the flight recorder, the telemetry pump,
    the span store and the finished-operation feed each take the kinds
    they need from it. Counting by kind needs no event — see
    {!scrape_counts} and {!counts}.

    Nothing here advances the simulation clock: emitters pass their
    engine's clock cell ([~clock]), which a consumer reads only where it
    keeps or compares the time. *)

(** {1 Producing layers} *)

(** Consumer bits, combined with [lor]: the consumers a kind goes to. *)

val timeline : int
val recorder : int
val pump : int

(** The hub's span store: listens while the hub traces. *)
val spans : int

(** The latency histograms and the SLO engine: listen once a hub
    consumes spans. *)
val ops : int

(** How a producing layer describes its event record ['e]. *)
type 'e layer = {
  column : string;  (** the timeline's column: ["ipc"], ["net"] *)
  cat : 'e -> Eventlog.cat;  (** the recorder's category *)
  host : 'e -> string;  (** the recorder's host label *)
  trace : 'e -> int;  (** the active trace id; 0 = none *)
  pp : timeline:bool -> Format.formatter -> 'e -> unit;
      (** the layer's one printer: the timeline's text, or the
          recorder's label *)
  span : ('e -> Span.event) option;
      (** the span event an event carries, for {!spans} and {!ops};
          [None] for a layer none of whose kinds go there *)
}

type t

(** [create events] makes a stream feeding the recorder [events], with
    the timeline off, the pump disarmed and no span consumer. *)
val create : Eventlog.t -> t

(** [listening t consumers] is the one guard, one test: true only while
    one of [consumers] listens — the timeline is on, the recorder is
    enabled, the pump is armed, the hub traces. Sites build and emit an
    event only when it holds for the consumers of its kind. *)
val listening : t -> int -> bool

(** [emit t layer ~consumers ~clock e] hands event [e], stamped
    [clock.at], to each of [consumers] that listens. [clock] is the
    emitter's engine clock ({!Vsim.Engine.clock}), read flat, so the
    time is boxed only in a consumer that keeps it. Allocates only in a
    consumer that stores or prints the event. *)
val emit :
  t -> 'e layer -> consumers:int -> clock:Vsim.Engine.cell -> 'e -> unit

(** [consume_spans t ~tracing f] makes [f] the consumer of span events:
    {!ops} listens from now on, {!spans} while [tracing]. [f] gets the
    emitter's clock cell, as {!emit} does. *)
val consume_spans :
  t -> tracing:bool -> (clock:Vsim.Engine.cell -> Span.event -> unit) -> unit

(** {1 The timeline} *)

type line = { at : float; column : string; text : string }

val set_timeline : t -> bool -> unit

(** Lines in emission order. *)
val lines : t -> line list

(** One line per event, times relative to the first. *)
val pp_timeline : Format.formatter -> t -> unit

(** {1 The telemetry pump} *)

(** [arm_pump t ~interval_ms ~now sample] runs [sample ~now] on the
    first pump-driving event at or after [now], then at most once per
    [interval_ms] of simulated time. *)
val arm_pump :
  t -> interval_ms:float -> now:float -> (now:float -> unit) -> unit

val disarm_pump : t -> unit
val pump_armed : t -> bool

(** {1 Counting by kind} *)

(** [scrape_counts m ~host ~server ~ops ~family counts] moves a
    producer's per-kind counts into [m] under (host, server, op) and
    zeroes them. [ops.(i)] names counter [i]; [""] keeps it out of the
    registry. The first [family] counters land together, zeros
    included, once any is nonzero; the others only when nonzero. *)
val scrape_counts :
  Metrics.t ->
  host:string ->
  server:string ->
  ops:string array ->
  family:int ->
  int array ->
  unit

(** [counts t ~host ~server] is the count table of (host, server) by
    registry op, made on first use and shared by every producer
    reporting there. *)
val counts : t -> host:string -> server:string -> (string, int ref) Hashtbl.t

(** [scrape t m] moves every count table into [m] and empties it: a key
    lands once counted, even when it added 0. The hub registers it as a
    source of its registry. *)
val scrape : t -> Metrics.t -> unit
