(** Workload generation: file populations and operation streams for the
    comparison experiments. *)

(** A random lowercase word. *)
val word : Vsim.Prng.t -> string

(** Populate a file server with a random directory tree (at setup time,
    write-behind); returns the absolute paths of the created files. *)
val populate :
  Vsim.Prng.t ->
  Vservices.File_server.t ->
  directories:int ->
  files_per_directory:int ->
  string list

(** Strip the leading slash: protocol names are interpreted relative to
    the starting (root) context. *)
val relative : string -> string

type op = Open_read of string | Query of string | Delete of string

(** The cumulative Zipf distribution over [n] ranks with exponent [s]
    (default 1.0): rank i (0-based) has weight proportional to
    [(i+1)^-s]. Raises [Invalid_argument] when [n < 1]. *)
val zipf_cumulative : ?s:float -> int -> float array

(** Draw a rank from a precomputed {!zipf_cumulative} — exactly one
    PRNG float draw per sample. *)
val zipf_pick : Vsim.Prng.t -> float array -> int

(** {1 Cohort clients}

    A cohort aggregates [size] statistically identical open-loop
    clients into one process: the superposition of [size] Poisson
    arrival streams with mean gap [mean_gap_ms] is one Poisson stream
    with mean gap [mean_gap_ms/size], so one PRNG stream and one fiber
    reproduce the arrival process of [size] separate clients. Used by
    the e12 soak to simulate 1M clients without 1M processes. *)

type cohort

val cohort : size:int -> mean_gap_ms:float -> Vsim.Prng.t -> cohort
val cohort_size : cohort -> int

(** Draw the next inter-arrival gap (ms) of the aggregated stream. *)
val cohort_next_gap : cohort -> float

(** [n] operations drawn over the given paths with the given fraction of
    deletes (the rest split between queries and opens). [locality] is
    the probability an operation targets the hot set (the first 8
    paths) instead of drawing uniformly. At the default (0.0) it makes
    no extra PRNG draw, so pre-existing streams are reproduced
    bit-for-bit. *)
val operation_stream :
  ?locality:float ->
  Vsim.Prng.t ->
  string list ->
  n:int ->
  delete_fraction:float ->
  op list
