(** The metrics store: counters, gauges and fixed-bucket latency
    histograms keyed by (level, scope, server, operation).

    Every recording lands at its leaf key, whose scope is the
    recording's host. While a group mapping is installed (see
    {!set_groups}; [Kernel.enable_telemetry] installs the kernel's
    topology mapping and [Kernel.disable_telemetry] removes it), the
    recording also lands at its group key (the leaf's group, when the
    mapping names one) and at its fleet key (scope ["fleet"]), so fleet
    totals are exact and group cardinality is O(groups + servers):
    - counters sum at every level;
    - a gauge keeps the latest reading at the leaf and the peak at the
      group and fleet keys;
    - a histogram made while grouped keeps two exemplar slots per
      bucket, filled from a private {!Vsim.Prng} stream;
    - a new leaf key past {!leaf_cap} is refused, counted in
      {!keys_dropped}, and still aggregated.

    Recording never touches simulated time, so instrumented and
    uninstrumented runs produce bit-identical results. The store is
    always on; instruments are created lazily on first use.

    Every reader ({!counter_value} to {!levels_to_json}) first runs the
    registered sources, so counts a producer keeps in place are in the
    store whenever anyone looks. *)

type level = Leaf | Group | Fleet

val level_to_string : level -> string

(** A key within one level: [host] is the scope — the host at the leaf
    level, the group at the group level, ["fleet"] at the fleet level. *)
type key = { host : string; server : string; op : string }

val pp_key : Format.formatter -> key -> unit

type t

val create : ?bounds:float array -> unit -> t

(** [add_source t f] registers a producer that keeps counts outside the
    store: every read runs [f t] first (sources in registration order),
    and [f] moves the producer's counts in. *)
val add_source : t -> (t -> unit) -> unit

(** [set_groups t (Some group_of)] installs a group mapping: from now on
    every recording also lands at the group [group_of host] names
    ([None]: the fleet only) and at the fleet. [set_groups t None]
    removes it; the group and fleet keys keep what they hold. *)
val set_groups : t -> (string -> string option) option -> unit

(** Whether a group mapping is installed. *)
val grouped : t -> bool

(** The most leaf keys a grouped store admits: 4,096. *)
val leaf_cap : int

(** Recording. *)

val incr : ?by:int -> t -> host:string -> server:string -> op:string -> unit
val set_gauge : t -> host:string -> server:string -> op:string -> float -> unit

(** [observe ?trace t ~host ~server ~op v] records a histogram sample; a
    positive [trace] id is offered to the bucket's exemplar reservoir of
    every histogram that keeps exemplars. *)
val observe :
  ?trace:int -> t -> host:string -> server:string -> op:string -> float -> unit

(** Reading. *)

(** [counter_value] is 0 for a leaf counter never incremented. *)
val counter_value : t -> host:string -> server:string -> op:string -> int

(** The leaf histogram of a key, if any sample landed there. *)
val histogram :
  t -> host:string -> server:string -> op:string -> Histogram.t option

(** All instruments of one level (default [Leaf]), sorted by key. *)

val counters : ?level:level -> t -> (key * int) list
val gauges : ?level:level -> t -> (key * float) list
val histograms : ?level:level -> t -> (key * Histogram.t) list

(** Keys held across all levels. *)
val key_count : t -> int

(** Recordings refused a new leaf key by {!leaf_cap}. *)
val keys_dropped : t -> int

(** The leaf level: instruments labelled (host, server, op). *)
val to_json : t -> Json.t

(** The key count, the drops and the group and fleet levels, their
    instruments labelled (scope, server, op). *)
val levels_to_json : t -> Json.t
