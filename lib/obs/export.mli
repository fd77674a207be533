(** Exporters for traces and metrics: a human-readable timeline tree,
    JSON, Prometheus text and the telemetry status. Every exporter
    reads the registry after its sources have run (see
    {!Metrics.add_source}) and refreshes the obs-health gauges (eventlog
    drops, span evictions, sampled-out traces, rollup key pressure,
    time-series refusals) first. *)

(** [pp_timeline ppf spans] renders a span list (e.g. from
    {!Hub.trace_spans}) as an indented parent/child tree, one line per
    hop, in creation order. Spans whose parent is missing from the list
    render as roots. *)
val pp_timeline : Format.formatter -> Span.t list -> unit

val trace_to_json : Span.t list -> Json.t

(** The flight-recorder dump: event log, spans, metrics, SLO summary
    (when attached) and drop counters, with [reason] stating why the
    dump was cut (default ["manual"]). When a rollup or time-series
    store is attached, their dumps ride along. *)
val flight_to_json : ?reason:string -> Hub.t -> Json.t

(** The scale-telemetry artifact: rollup tree, time series, sampling
    counters and the metrics registry — no spans or events, which at
    soak scale would dwarf the aggregates. *)
val telemetry_to_json : Hub.t -> Json.t

(** The whole hub in Prometheus text exposition format: flat
    instruments labelled (host, server, op), rollup rows labelled
    (level, scope, server, op); histograms as cumulative buckets over
    the configured bounds closed by the mandatory [le="+Inf"] row —
    the only representation where "+Inf" appears. *)
val prometheus : Hub.t -> string

(** The scale-telemetry status: ["telemetry off (flat metrics only)"]
    without a rollup; otherwise the sampling rate, sampled-out traces,
    rollup key count and leaf-cap drops, and the time-series count and
    refusals when a store is attached. *)
val pp_telemetry_status : Format.formatter -> Hub.t -> unit
