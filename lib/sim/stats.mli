(** Counters and exact sample series for the measurement harness. *)

module Counter : sig
  type t

  val create : string -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
  val name : t -> string
  val reset : t -> unit
end

module Series : sig
  type t

  val create : string -> t
  val name : t -> string
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min_ : t -> float
  val max_ : t -> float

  (** Quantile in [\[0, 1\]] by linear interpolation. *)
  val quantile : t -> float -> float

  val median : t -> float

  type summary = {
    n : int;
    mean : float;
    min : float;
    max : float;
    stddev : float;  (** sample standard deviation *)
    p50 : float;
    p95 : float;
    p99 : float;
  }

  val summarize : t -> summary
  val pp_summary : Format.formatter -> summary -> unit

  (** Equal-width histogram: [(bucket_lo, bucket_hi, count)] rows. *)
  val histogram : ?buckets:int -> t -> (float * float * int) list

  (** Render the histogram with '#' bars scaled to the fullest bucket. *)
  val pp_histogram : ?buckets:int -> ?bar_width:int -> Format.formatter -> t -> unit
end
