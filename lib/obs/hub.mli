(** The per-deployment observability handle: trace/span numbering, the
    bounded span store, the metrics store, the flight recorder, the
    event stream every layer reports into, and (when attached) the SLO
    engine. One hub is shared by every host in a simulated
    internetwork, so spans from different hosts land in one store keyed
    by trace id. The span store and the latency feed are consumers of
    the stream: they build spans from span events ({!Span.event}) and
    take each finished client operation from its [Done] event.

    Nothing here advances the simulation clock — callers pass [~now],
    and the stream hands its consumers the emitter's clock cell, read
    only where a time is kept — so simulated timings are bit-identical
    with observability on or off. *)

type t

(** [create ()] makes a hub with tracing off, its always-on metrics
    store, and the flight recorder present but disabled, at its default
    capacity. The span store keeps at most [span_limit] spans; eviction
    is tail-based — see {!spans_dropped}. *)
val create : ?tracing:bool -> ?span_limit:int -> unit -> t

(** The metrics store. [Kernel.enable_telemetry] groups it by the
    kernel's topology and [Kernel.disable_telemetry] ungroups it (see
    {!Metrics.set_groups}). *)
val metrics : t -> Metrics.t

(** The hub's flight recorder (disabled until
    [Eventlog.set_enabled]). *)
val events : t -> Eventlog.t

(** The event stream, feeding this hub's recorder, span store, latency
    histograms and SLO engine. *)
val stream : t -> Stream.t

(** The attached SLO engine, if any; every finished client operation's
    [Done] event feeds it. *)
val slo : t -> Slo.t option

val set_slo : t -> Slo.t option -> unit

(** Spans evicted from the bounded store so far. Eviction is
    tail-based: traces that errored, retried, failed over, hit a fault
    or are still open survive; boring finished traces drop first,
    oldest first. Also counted under the ("obs", "hub",
    "spans-dropped") metric. *)
val spans_dropped : t -> int

(** [set_head_sampling t ~every ~seed] keeps 1-in-[every] traces,
    decided at {!start_trace} by a private deterministic PRNG — zero
    draws from any workload stream, so sampled and unsampled runs are
    behaviourally identical. [every = 1] (the default) keeps all.
    Composes with tail-based span eviction: heads choose which traces
    exist, tails choose which recorded spans survive memory pressure.
    @raise Invalid_argument when [every < 1]. *)
val set_head_sampling : t -> every:int -> seed:int -> unit

val sample_every : t -> int

(** Traces refused by head sampling so far. *)
val sampled_out : t -> int

(** The attached time-series store, if any; samplers (the kernel
    telemetry pump) feed it, exporters and [vsh top] read it. *)
val timeseries : t -> Timeseries.t option

val set_timeseries : t -> Timeseries.t option -> unit

(** [start_trace t ~now] allocates a fresh trace and returns the context
    to attach to the outgoing request. Returns {!Span.no_ctx} when
    tracing is off or head sampling rejects the trace. *)
val start_trace : t -> now:float -> Span.ctx

(** Most recently started trace id, if any trace has been started. *)
val last_trace : t -> int option

(** All stored spans of a trace, ordered by span id (creation order). *)
val trace_spans : t -> int -> Span.t list

val all_spans : t -> Span.t list
