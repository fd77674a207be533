(** Windowed service-level objectives with multi-window burn-rate
    alerting.

    Client operations land in sim-time buckets; availability and
    latency objectives are evaluated against a {!target} using the SRE
    burn-rate recipe — a breach fires only when both a short window
    (one bucket) and a long window burn the error budget faster than a
    threshold. Evaluation is a pure scan over the buckets and nothing
    here reads the simulation clock, so an attached engine never
    perturbs a run. *)

type target = {
  availability : float;  (** e.g. 0.99: at least 99% of ops succeed *)
  latency_ms : float;  (** ops slower than this count as slow *)
  latency_quantile : float;  (** e.g. 0.95: at least 95% of ops fast *)
}

type t

(** [create ()] makes an engine with 5 s buckets, a 6-bucket long
    window, and a 2.0x burn threshold.
    @raise Invalid_argument on non-positive windows/threshold or
    targets outside (0, 1]. *)
val create :
  ?window_ms:float ->
  ?long_windows:int ->
  ?burn_threshold:float ->
  ?target:target ->
  unit ->
  t

val target : t -> target
val window_ms : t -> float

(** [observe t ~now ~ok ~latency_ms] records one finished client
    operation into the bucket holding [now]. *)
val observe : t -> now:float -> ok:bool -> latency_ms:float -> unit

type breach = {
  at : float;  (** end of the breaching short window, sim ms *)
  dimension : string;  (** ["availability"] or ["latency"] *)
  short_burn : float;
  long_burn : float;
}

(** All breaches, in bucket order. Pure: same observations, same
    breaches. *)
val breaches : t -> breach list

type summary = {
  window_ms : float;
  ops : int;
  errors : int;
  slow : int;
  availability : float;  (** 1.0 when no ops observed *)
  slow_fraction : float;
  breach_list : breach list;
}

val summary : t -> summary
val breach_to_json : breach -> Json.t

(** Totals plus a ["breaches"] list — the object {!val:summary}
    gates on. *)
val summary_to_json : summary -> Json.t

val pp_summary : Format.formatter -> summary -> unit
