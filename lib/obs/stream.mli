(** The event stream: every kernel and wire site reports once, as one
    typed event; the timeline, the flight recorder and the telemetry
    pump each take the kinds they need from it. Counting by kind needs
    no event — see {!scrape_counts}.

    Nothing here reads the simulation clock: emitters pass [~at]. *)

(** {1 Producing layers} *)

(** Consumer bits, combined with [lor]: the consumers a kind goes to. *)

val timeline : int
val recorder : int
val pump : int

(** How a producing layer describes its event record ['e]. *)
type 'e layer = {
  column : string;  (** the timeline's column: ["ipc"], ["net"] *)
  cat : 'e -> Eventlog.cat;  (** the recorder's category *)
  host : 'e -> string;  (** the recorder's host label *)
  trace : 'e -> int;  (** the active trace id; 0 = none *)
  pp : timeline:bool -> Format.formatter -> 'e -> unit;
      (** the layer's one printer: the timeline's text, or the
          recorder's label *)
}

type t

(** [create events] makes a stream feeding the recorder [events], with
    the timeline off and the pump disarmed. *)
val create : Eventlog.t -> t

(** [listening t consumers] is the one guard: true only while one of
    [consumers] listens — the timeline is on, the recorder is enabled,
    the pump is armed. Sites build and emit an event only when it holds
    for the consumers of its kind. *)
val listening : t -> int -> bool

(** [emit t layer ~consumers ~at e] hands event [e], stamped [at], to
    each of [consumers] that listens. Allocates only in a consumer that
    stores or prints the event. *)
val emit : t -> 'e layer -> consumers:int -> at:float -> 'e -> unit

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
