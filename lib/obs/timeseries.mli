(** Fixed-memory time series over simulated time.

    Each named series is a fixed-size buffer of (bucket start, value)
    points. Samples within one bucket coalesce (counter: latest
    cumulative reading; gauge: peak); a full series downsamples in
    place by merging adjacent point pairs and doubling its bucket
    width, so arbitrarily long runs always fit — recent history stays
    fine-grained while older history coarsens. The series count itself
    is capped; refused series are counted, never silently absorbed.

    Sampling takes the caller's [~now] and never reads a clock. *)

type t

type kind = Counter | Gauge

val kind_to_string : kind -> string

(** [create ()] makes an empty store. [capacity] (default 256) is the
    per-series point budget, [bucket_ms] (default 1000) the initial
    bucket width in simulated ms, [max_series] (default 512) the series
    cap.
    @raise Invalid_argument on a capacity < 4, non-positive bucket
    width, or max_series < 1. *)
val create : ?capacity:int -> ?bucket_ms:float -> ?max_series:int -> unit -> t

(** [sample t name kind ~now v] records one reading. The first sample
    of a name fixes its kind; creating a series beyond [max_series] is
    refused and counted in {!series_dropped}. *)
val sample : t -> string -> kind -> now:float -> float -> unit

(** Points of a series, oldest first; [] for an unknown name. *)
val points : t -> string -> (float * float) list

(** Current bucket width of a series — grows by doubling as the series
    downsamples. *)
val bucket_ms : t -> string -> float option

(** All series names with their kinds, sorted. *)
val names : t -> (string * kind) list

val series_count : t -> int

(** Series creations refused by the [max_series] cap. *)
val series_dropped : t -> int

(** Unicode block sparkline of the last 24 points, scaled to the
    window's own range; "" for unknown or empty series. *)
val sparkline : t -> string -> string

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
