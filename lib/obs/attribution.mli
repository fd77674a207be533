(** Chaos attribution: join applied-fault windows against degraded
    operations and unavailability windows by interval overlap, yielding
    a per-fault impact table. Pure — same inputs, same table — and
    ignorant of plans and injectors: callers render their own types
    down to these records. *)

type fault = {
  at : float;  (** sim ms the fault was applied *)
  until : float;  (** sim ms its recovery landed (or the horizon) *)
  kind : string;  (** ["crash"], ["partition"], ["loss"], ["slow"] *)
  label : string;  (** rendered action, e.g. ["crash host 100"] *)
}

type op = { started : float; finished : float; ok : bool; retries : int }

type impact = {
  fault : fault;
  ops : int;  (** ops overlapping the fault window *)
  failures : int;
  retries : int;  (** retries spent by overlapping ops *)
  unavailable_ms : float;  (** unavailability overlapping the window *)
}

(** [attribute ~faults ~ops ?windows ()] attributes each op (and each
    unavailability window) to every fault whose window it overlaps —
    overlapping faults genuinely compound. Impacts come back sorted by
    fault time then label. *)
val attribute :
  faults:fault list ->
  ops:op list ->
  ?windows:(float * float) list ->
  unit ->
  impact list

val to_json : impact list -> Json.t

(** Render the impact table, one fault per row. *)
val pp : Format.formatter -> impact list -> unit
