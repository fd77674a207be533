(** Plain-text table rendering for the benchmark harness. *)

val print_title : string -> unit
val print_section : string -> unit

(** Aligned columns; the first column is left-aligned. The cells of the
    columns named in [host] are host-measured: each row's are recorded
    through {!note_host}, keyed by the row's first cell, instead of in
    the row. *)
val print_table :
  ?host:string list -> header:string list -> string list list -> unit

type comparison = {
  label : string;
  paper : float option;  (** the figure the paper reports, if any *)
  measured : float;
  unit_ : string;
}

(** Paper-vs-measured with relative deviation. *)
val print_comparison : comparison list -> unit

val ms : float -> string
val count : int -> string

(** {1 JSON recording}

    Every comparison and table printed is also recorded, grouped under
    the most recent {!print_title}, so the harness can dump a
    machine-readable summary of a run. *)

(** Record an extra JSON entry under the current title. *)
val record : Vobs.Json.t -> unit

(** {1 Run metadata}

    The harness opens a ["_meta"] entry per experiment it runs; the
    experiment fills in what it knows. The dump then starts with a
    self-describing ["_meta"] object (tool, version, per-experiment
    seed, sim horizon, events and host-measured values) that
    {!results_json} prepends. *)

(** [begin_experiment name] opens the metadata entry subsequent
    {!note_meta} and {!note_host} calls fill. Called by the harness
    before each experiment. *)
val begin_experiment : string -> unit

(** [note_meta ?seed ?horizon_ms ?events_executed ()] records the
    current experiment's seed, simulated horizon and/or simulator
    events executed. A no-op outside a harness run. *)
val note_meta :
  ?seed:int -> ?horizon_ms:float -> ?events_executed:int -> unit -> unit

(** [note_host key value] records a host-measured value (wall clock,
    CPU time, a rate over either) under the current experiment's
    ["_meta"."experiments".name."host"] object. It is reported, never
    compared: the bench-regression gate holds every other value of a
    dump to exact equality. A no-op outside a harness run. *)
val note_host : string -> Vobs.Json.t -> unit

(** [host_paced ()] marks the current experiment's amount of work as
    set by host measurements (E15 runs more timed rounds on a noisy
    host): its engine event total, which {!note_meta} receives, is then
    recorded through {!note_host} instead of compared. *)
val host_paced : unit -> unit

(** Everything recorded so far: an object mapping each title to its
    entries, in print order, preceded by ["_meta"] when the harness
    opened experiment entries. *)
val results_json : unit -> Vobs.Json.t
