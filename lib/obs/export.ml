(* Exporters: the human-readable timeline view of a trace, JSON,
   Prometheus text and the telemetry status line.

   The timeline renders the span tree by parent links, children indented
   under their parent in span-id (creation) order, each line showing
   where the hop ran, what slice of the name it consumed, and how the
   hop's latency split between waiting (wire + queueing) and service. *)

let children spans id =
  List.filter (fun s -> s.Span.parent_id = id) spans

let pp_span_line ppf s =
  let name_slice =
    if s.Span.index_to > s.Span.index_from then
      Printf.sprintf " name[%d..%d]" s.Span.index_from s.Span.index_to
    else if s.Span.index_from > 0 then
      Printf.sprintf " name[%d..]" s.Span.index_from
    else ""
  in
  Fmt.pf ppf "%-28s %s/%s pid %d ctx %d%s  wait %.3fms svc %.3fms -> %s"
    s.Span.op s.Span.host s.Span.server s.Span.pid s.Span.context name_slice
    s.Span.queue_wait (Span.service_ms s) s.Span.outcome

let pp_timeline ppf spans =
  let rec render indent s =
    Fmt.pf ppf "%s%a@." indent pp_span_line s;
    List.iter (render (indent ^ "  ")) (children spans s.Span.span_id)
  in
  match spans with
  | [] -> Fmt.pf ppf "(no spans)@."
  | _ ->
      let roots =
        (* Roots: parent 0, or parent not in the (possibly trimmed)
           store — orphans still render rather than vanish. *)
        List.filter
          (fun s ->
            s.Span.parent_id = 0
            || not
                 (List.exists
                    (fun p -> p.Span.span_id = s.Span.parent_id)
                    spans))
          spans
      in
      List.iter (render "") roots

let trace_to_json spans =
  Json.List (List.map Span.to_json spans)

(* The obs-health gauges: the hub's own losses (eventlog drops, span
   evictions, sampled-out traces, key pressure while grouped,
   time-series refusals), mirrored from its internals. Every exporter
   refreshes them before reading; the hot path never pays for them. *)
let refresh_health hub =
  let m = Hub.metrics hub in
  Metrics.set_gauge m ~host:"obs" ~server:"hub" ~op:"sampled-out"
    (float_of_int (Hub.sampled_out hub));
  Metrics.set_gauge m ~host:"obs" ~server:"eventlog" ~op:"dropped-total"
    (float_of_int (Eventlog.dropped (Hub.events hub)));
  Metrics.set_gauge m ~host:"obs" ~server:"hub" ~op:"spans-dropped-total"
    (float_of_int (Hub.spans_dropped hub));
  if Metrics.grouped m then begin
    Metrics.set_gauge m ~host:"obs" ~server:"rollup" ~op:"keys-dropped"
      (float_of_int (Metrics.keys_dropped m));
    Metrics.set_gauge m ~host:"obs" ~server:"rollup" ~op:"key-count"
      (float_of_int (Metrics.key_count m))
  end;
  match Hub.timeseries hub with
  | Some ts ->
      Metrics.set_gauge m ~host:"obs" ~server:"timeseries"
        ~op:"series-dropped"
        (float_of_int (Timeseries.series_dropped ts))
  | None -> ()

(* The flight-recorder dump: everything an incident review needs in one
   artifact — the event log, every surviving span, the metrics
   store, the SLO summary when an engine is attached, and the drop
   counters that say how complete the recording is. [reason] states why
   the dump was cut (e.g. "invariant-violation", "slo-breach",
   "manual"). *)
let flight_to_json ?(reason = "manual") hub =
  refresh_health hub;
  let slo =
    match Hub.slo hub with
    | None -> Json.Null
    | Some engine -> Slo.summary_to_json (Slo.summary engine)
  in
  let scale_fields =
    (if Metrics.grouped (Hub.metrics hub) then
       [ ("rollup", Metrics.levels_to_json (Hub.metrics hub)) ]
     else [])
    @
    match Hub.timeseries hub with
    | Some ts -> [ ("timeseries", Timeseries.to_json ts) ]
    | None -> []
  in
  Json.Obj
    ([
       ("reason", Json.String reason);
       ("spans_dropped", Json.Int (Hub.spans_dropped hub));
       ("events", Eventlog.to_json (Hub.events hub));
       ("spans", trace_to_json (Hub.all_spans hub));
       ("slo", slo);
       ("metrics", Metrics.to_json (Hub.metrics hub));
     ]
    @ scale_fields)

(* The telemetry artifact the nightly soak uploads: group and fleet
   levels, time series and the leaf metrics — no spans or events, which
   at 100k hosts would dwarf the aggregates the artifact exists to
   carry. *)
let telemetry_to_json hub =
  refresh_health hub;
  Json.Obj
    [
      ( "rollup",
        if Metrics.grouped (Hub.metrics hub) then
          Metrics.levels_to_json (Hub.metrics hub)
        else Json.Null );
      ( "timeseries",
        match Hub.timeseries hub with
        | Some ts -> Timeseries.to_json ts
        | None -> Json.Null );
      ("sampled_out", Json.Int (Hub.sampled_out hub));
      ("sample_every", Json.Int (Hub.sample_every hub));
      ("metrics", Metrics.to_json (Hub.metrics hub));
    ]

(* --- Prometheus text exposition format --- *)

(* Label values escape backslash, double quote and newline per the
   exposition-format spec. *)
let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels pairs =
  pairs
  |> List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
  |> String.concat ","

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

(* One histogram in exposition format: cumulative buckets over the raw
   configured bounds, closed by the mandatory le="+Inf" row. This is
   the only place "+Inf" appears — the JSON/vsh views clamp the
   overflow bucket to the observed max (see {!Histogram}); here the
   wire format mandates the open-ended row. *)
let prom_histogram buf name base_labels h =
  let bounds = Histogram.bounds h in
  let counts = Histogram.raw_counts h in
  let cum = ref 0 in
  Array.iteri
    (fun i b ->
      cum := !cum + counts.(i);
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{%s} %d\n" name
           (labels (base_labels @ [ ("le", prom_float b) ]))
           !cum))
    bounds;
  cum := !cum + counts.(Array.length counts - 1);
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{%s} %d\n" name
       (labels (base_labels @ [ ("le", "+Inf") ]))
       !cum);
  Buffer.add_string buf
    (Printf.sprintf "%s_sum{%s} %s\n" name (labels base_labels)
       (prom_float (Histogram.sum h)));
  Buffer.add_string buf
    (Printf.sprintf "%s_count{%s} %d\n" name (labels base_labels)
       (Histogram.count h))

let prom_family buf name typ help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)

(* The whole hub in Prometheus text exposition format, level by level:
   leaf instruments carry (host, server, op) labels, group and fleet
   rows (level, scope, server, op). *)
let prometheus hub =
  refresh_health hub;
  let m = Hub.metrics hub in
  let buf = Buffer.create 4096 in
  let key_labels level (k : Metrics.key) =
    match level with
    | Metrics.Leaf ->
        [ ("host", k.Metrics.host); ("server", k.server); ("op", k.op) ]
    | Metrics.Group | Metrics.Fleet ->
        [
          ("level", Metrics.level_to_string level);
          ("scope", k.Metrics.host);
          ("server", k.server);
          ("op", k.op);
        ]
  in
  let each rows f =
    List.iter
      (fun level ->
        List.iter (fun (k, v) -> f (key_labels level k) v) (rows level))
      [ Metrics.Leaf; Metrics.Group; Metrics.Fleet ]
  in
  prom_family buf "v_ops_total" "counter" "Operation counts";
  each (fun level -> Metrics.counters ~level m) (fun l v ->
      Buffer.add_string buf
        (Printf.sprintf "v_ops_total{%s} %d\n" (labels l) v));
  prom_family buf "v_gauge" "gauge" "Instantaneous readings";
  each (fun level -> Metrics.gauges ~level m) (fun l v ->
      Buffer.add_string buf
        (Printf.sprintf "v_gauge{%s} %s\n" (labels l) (prom_float v)));
  prom_family buf "v_latency_ms" "histogram" "Operation latency (simulated ms)";
  each
    (fun level -> Metrics.histograms ~level m)
    (fun l h -> prom_histogram buf "v_latency_ms" l h);
  Buffer.contents buf

(* The scale-telemetry status: sampling, key pressure and
   time-series refusals, health gauges refreshed first like every
   export. *)
let pp_telemetry_status ppf hub =
  let m = Hub.metrics hub in
  if not (Metrics.grouped m) then
    Fmt.pf ppf "telemetry off (flat metrics only)@."
  else begin
    refresh_health hub;
    Fmt.pf ppf
      "telemetry on: tracing 1-in-%d (%d sampled out), rollup %d key(s), %d \
       observation(s) dropped by the leaf cap@."
      (Hub.sample_every hub) (Hub.sampled_out hub) (Metrics.key_count m)
      (Metrics.keys_dropped m);
    Option.iter
      (fun ts ->
        Fmt.pf ppf "time series: %d series, %d refused by the cap@."
          (Timeseries.series_count ts)
          (Timeseries.series_dropped ts))
      (Hub.timeseries hub)
  end
