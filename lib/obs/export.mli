(** Exporters for traces and metrics: a human-readable timeline tree,
    JSON, Prometheus text and the telemetry status. Every exporter
    reads the metrics store after its sources have run (see
    {!Metrics.add_source}) and refreshes the obs-health gauges (eventlog
    drops, span evictions, sampled-out traces, key pressure while
    grouped, time-series refusals) first. *)

(** [pp_timeline ppf spans] renders a span list (e.g. from
    {!Hub.trace_spans}) as an indented parent/child tree, one line per
    hop, in creation order. Spans whose parent is missing from the list
    render as roots. *)
val pp_timeline : Format.formatter -> Span.t list -> unit

(** The flight-recorder dump: event log, spans, the leaf metrics, SLO
    summary (when attached) and drop counters, with [reason] stating why
    the dump was cut (default ["manual"]). While the store is grouped,
    its group and fleet levels ride along as ["rollup"]
    ({!Metrics.levels_to_json}); so does an attached time-series
    store. *)
val flight_to_json : ?reason:string -> Hub.t -> Json.t

(** The scale-telemetry artifact: the group and fleet levels (["rollup"],
    null while ungrouped), time series, sampling counters and the leaf
    metrics — no spans or events, which at soak scale would dwarf the
    aggregates. *)
val telemetry_to_json : Hub.t -> Json.t

(** The whole hub in Prometheus text exposition format: leaf
    instruments labelled (host, server, op), group and fleet rows
    labelled (level, scope, server, op); histograms as cumulative buckets over
    the configured bounds closed by the mandatory [le="+Inf"] row —
    the only representation where "+Inf" appears. *)
val prometheus : Hub.t -> string

(** The scale-telemetry status: ["telemetry off (flat metrics only)"]
    while the store is ungrouped; otherwise the sampling rate,
    sampled-out traces, key count and leaf-cap drops, and the
    time-series count and refusals when a store is attached. *)
val pp_telemetry_status : Format.formatter -> Hub.t -> unit
