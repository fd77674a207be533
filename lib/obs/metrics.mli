(** The metrics registry: counters, gauges and fixed-bucket latency
    histograms keyed by (host, server, operation).

    Recording never touches simulated time, so instrumented and
    uninstrumented runs produce bit-identical results; a disabled
    registry reduces every recording call to one boolean test.
    Instruments are created lazily on first use.

    Two storage modes share the recording API. Flat mode (the default)
    keeps one instrument per concrete key — unbounded cardinality, fine
    below fleet scale. Attaching a {!Rollup} via {!set_rollup} forwards
    every recording into the rollup's leaf/group/fleet tree (host as
    leaf scope) instead; the flat tables then stay empty and the flat
    readers report zero/absent — at scale, read the rollup.

    Every reader ({!counter_value} to {!to_json}, and {!rollup}) first runs
    the registered sources, so counts a producer keeps in place are in
    the registry whenever anyone looks. *)

type key = { host : string; server : string; op : string }

val pp_key : Format.formatter -> key -> unit

type t

val create : ?bounds:float array -> unit -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** [add_source t f] registers a producer that keeps counts outside the
    registry: every read runs [f t] first (sources in registration
    order), and [f] moves the producer's counts in. *)
val add_source : t -> (t -> unit) -> unit

(** The attached rollup, if the registry is in scale mode — a reader:
    the sources run first. *)
val rollup : t -> Rollup.t option

(** [set_rollup t (Some r)] switches the registry to scale mode: all
    subsequent recordings land in [r] rather than the flat tables.
    [set_rollup t None] returns to flat mode. *)
val set_rollup : t -> Rollup.t option -> unit

(** Recording. All are no-ops when the registry is disabled. *)

val incr : ?by:int -> t -> host:string -> server:string -> op:string -> unit
val set_gauge : t -> host:string -> server:string -> op:string -> float -> unit

(** [observe ?trace t ~host ~server ~op v] records a histogram sample;
    in rollup mode a positive [trace] id is offered to the bucket's
    exemplar reservoir when the rollup keeps exemplars. *)
val observe :
  ?trace:int -> t -> host:string -> server:string -> op:string -> float -> unit

(** {1 Observer handles — the recording hot path}

    An observer caches where its histogram lives (a flat cell or a
    rollup route), so recording through it is pointer work — no key
    construction, no hashing, no group lookup. Observers survive mode
    changes: attaching or detaching a rollup invalidates cached
    bindings, and an observer transparently rebinds on its next
    recording. *)

type observer

val observer : t -> host:string -> server:string -> op:string -> observer

(** [record ?trace o v] records a histogram sample through the handle;
    semantics match {!observe}. *)
val record : ?trace:int -> observer -> float -> unit

(** Reading (flat mode; in rollup mode these report zero/absent). *)

(** [counter_value] is 0 for a counter never incremented. *)
val counter_value : t -> host:string -> server:string -> op:string -> int

val histogram : t -> host:string -> server:string -> op:string -> Histogram.t option

(** All instruments, sorted by (host, server, op). *)

val counters : t -> (key * int) list
val gauges : t -> (key * float) list
val histograms : t -> (key * Histogram.t) list

val to_json : t -> Json.t
