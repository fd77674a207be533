(* The hub is the per-deployment observability handle: it owns trace and
   span numbering, the bounded span store, the metrics store, the
   flight recorder, the event stream every layer reports into
   ({!Stream}), and (when attached) the SLO engine. One hub is shared by
   every host in a simulated internetwork — the point of distributed
   tracing is precisely that spans from different hosts land in the
   same store, keyed by trace id.

   The span store is a consumer of the stream: it builds spans from
   span events alone ([consume]), and the finished-operation event
   feeds the latency histograms and the SLO engine. Tracing and
   metrics are independently switchable. With tracing off,
   [start_trace] hands out [Span.no_ctx] and the stream's span consumer
   does not listen, so instrumented code pays one test per hop. Nothing
   here ever advances the simulation clock: events come with their
   emitter's clock cell, which keeps simulated timings bit-identical
   whether observability is on or off.

   Span eviction is tail-based: when the store overflows, spans
   belonging to interesting traces — one that errored, retried, failed
   over, hit a fault, or is still open — survive, and boring (clean,
   finished) traces drop first, oldest first. Every evicted span counts
   into [spans_dropped] and the ("obs", "hub", "spans-dropped") metric,
   so a trimmed store is visible instead of silent. *)

type t = {
  tracing : bool;
  mutable next_trace : int;
  mutable next_span : int;
  span_limit : int;
  mutable spans : Span.t list;  (* newest first, trimmed at span_limit *)
  mutable span_count : int;
  (* Spans not yet closed, by id: where a close or a tag finds its
     span. A span trimmed from the store leaves it too. *)
  open_spans : (int, Span.t) Hashtbl.t;
  mutable spans_dropped : int;
  mutable last_trace : int;  (* 0 = no trace started yet *)
  metrics : Metrics.t;
  events : Eventlog.t;
  stream : Stream.t;
  mutable slo : Slo.t option;
  (* Head sampling: keep 1-in-[sample_every] traces, decided at
     start_trace by a private Vsim.Prng stream (zero draws from any
     workload PRNG). 1 = keep everything (the default). *)
  mutable sample_every : int;
  mutable sample_rand : Vsim.Prng.t;
  mutable sampled_out : int;
  mutable timeseries : Timeseries.t option;
}

let metrics t = t.metrics
let events t = t.events
let stream t = t.stream
let slo t = t.slo
let set_slo t engine = t.slo <- engine
let spans_dropped t = t.spans_dropped

let set_head_sampling t ~every ~seed =
  if every < 1 then invalid_arg "Hub.set_head_sampling: every must be >= 1";
  t.sample_every <- every;
  t.sample_rand <- Vsim.Prng.create ~seed

let sample_every t = t.sample_every
let sampled_out t = t.sampled_out
let timeseries t = t.timeseries
let set_timeseries t ts = t.timeseries <- ts

(* Head sampling composes with the tail-based eviction below: heads
   decide *which traces exist at all* (1-in-N, cheap, at the root),
   tails decide *which recorded spans survive memory pressure*
   (interesting traces last). A sampled-out request gets [Span.no_ctx]
   and pays nothing downstream — every hop's span event is one test. *)
let start_trace t ~now =
  if not t.tracing then Span.no_ctx
  else if t.sample_every > 1 && Vsim.Prng.int t.sample_rand t.sample_every <> 0
  then begin
    t.sampled_out <- t.sampled_out + 1;
    Span.no_ctx
  end
  else begin
    let id = t.next_trace in
    t.next_trace <- id + 1;
    t.last_trace <- id;
    { Span.trace = id; parent = 0; sent_at = now }
  end

(* A span worth keeping under eviction pressure: its op failed or is
   still in flight, or the client annotated it with retry/failover/fault
   trouble. A hop that forwarded the request, or a resolution step that
   answered with a referral or a terminal binding, ended clean.
   Trace-level interest is any interesting span in the trace — a clean
   hop of a retried trace still explains the retry. *)
let interesting_tag tag =
  tag = "fault"
  || (String.length tag >= 6 && String.sub tag 0 6 = "retry:")
  || (String.length tag >= 9 && String.sub tag 0 9 = "failover:")

let interesting_span s =
  (match s.Span.outcome with
  | "OK" | "forward" | "referral" | "terminal" -> false
  | _ -> true)
  || List.exists interesting_tag s.Span.tags

(* Tail-based trim: drop down to span_limit/2 (amortising the O(n)
   pass), boring traces first. Interesting-trace spans are kept up to
   3/4 of the limit — under pathological all-interesting load they too
   drop, oldest first, and each trim still frees at least a quarter of
   the store so the amortisation holds. *)
let trim t =
  let interesting = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if interesting_span s then Hashtbl.replace interesting s.Span.trace_id ())
    t.spans;
  let target = t.span_limit / 2 in
  let interesting_limit = t.span_limit * 3 / 4 in
  let kept = ref 0 in
  let keep s =
    let limit =
      if Hashtbl.mem interesting s.Span.trace_id then interesting_limit
      else target
    in
    if !kept < limit then begin
      incr kept;
      true
    end
    else false
  in
  t.spans <-
    List.filter
      (fun s ->
        keep s
        || begin
             Hashtbl.remove t.open_spans s.Span.span_id;
             false
           end)
      t.spans;
  let dropped = t.span_count - !kept in
  t.span_count <- !kept;
  t.spans_dropped <- t.spans_dropped + dropped;
  Metrics.incr ~by:dropped t.metrics ~host:"obs" ~server:"hub"
    ~op:"spans-dropped"

let record t span =
  t.spans <- span :: t.spans;
  t.span_count <- t.span_count + 1;
  if t.span_count > t.span_limit then trim t

let close t id ~(clock : Vsim.Engine.cell) ~index ~outcome =
  match Hashtbl.find_opt t.open_spans id with
  | Some s ->
      Hashtbl.remove t.open_spans id;
      s.Span.finished <- clock.at;
      s.Span.outcome <- outcome;
      if index >= 0 then s.Span.index_to <- index
  | None -> ()

(* The span store's consumer: spans are built from span events alone.
   An Open starts a hop's span (tracing on and the request traced) and
   hands its id back in the event; a Close or a Tag finds its span by
   id; a Done closes the operation's root and feeds its latency — the
   whole operation, retries included — to the (host, server, op)
   histogram, with the root's trace as an exemplar candidate, and to
   the SLO engine when one is attached. The event's time is read from
   its emitter's clock only where it is kept. *)
let consume t ~(clock : Vsim.Engine.cell) (e : Span.event) =
  match e.verb with
  | Open ->
      if t.tracing && Span.is_traced e.ctx then begin
        let at = clock.at in
        let id = t.next_span in
        t.next_span <- id + 1;
        let span =
          {
            Span.trace_id = e.ctx.Span.trace;
            span_id = id;
            parent_id = e.ctx.Span.parent;
            op = e.op;
            host = e.host;
            server = e.server;
            pid = e.pid;
            context = e.context;
            index_from = e.index;
            index_to = e.index;
            queue_wait = at -. e.ctx.Span.sent_at;
            started = at;
            finished = at;
            outcome = "open";
            tags = [];
          }
        in
        Hashtbl.replace t.open_spans id span;
        record t span;
        e.id <- id
      end
      else e.id <- 0
  | Close -> close t e.id ~clock ~index:e.index ~outcome:e.note
  | Tag -> (
      match Hashtbl.find_opt t.open_spans e.id with
      | Some s -> s.Span.tags <- e.note :: s.Span.tags
      | None -> ())
  | Done -> (
      let root = e.ctx in
      if e.label <> "" then
        Option.iter
          (fun s -> s.Span.op <- e.label)
          (Hashtbl.find_opt t.open_spans root.Span.parent);
      close t root.Span.parent ~clock ~index:(-1) ~outcome:e.note;
      let latency_ms = clock.at -. e.started in
      let trace = if Span.is_traced root then Some root.Span.trace else None in
      Metrics.observe ?trace t.metrics ~host:e.host ~server:e.server ~op:e.op
        latency_ms;
      match t.slo with
      | Some slo ->
          Slo.observe slo ~now:clock.at ~ok:(e.note = "OK") ~latency_ms
      | None -> ())

let create ?(tracing = false) ?(span_limit = 10_000) () =
  let events = Eventlog.create () in
  let t =
    {
      tracing;
      next_trace = 1;
      next_span = 1;
      span_limit;
      spans = [];
      span_count = 0;
      open_spans = Hashtbl.create 64;
      spans_dropped = 0;
      last_trace = 0;
      metrics = Metrics.create ();
      events;
      stream = Stream.create events;
      slo = None;
      sample_every = 1;
      sample_rand = Vsim.Prng.create ~seed:0;
      sampled_out = 0;
      timeseries = None;
    }
  in
  (* Mirror flight-recorder loss into a metric: a soak that silently
     trims its recorder is visible from the metrics artifact alone. *)
  Eventlog.set_on_drop t.events (fun lost ->
      Metrics.incr ~by:lost t.metrics ~host:"obs" ~server:"eventlog"
        ~op:"events-dropped");
  Metrics.add_source t.metrics (Stream.scrape t.stream);
  Stream.consume_spans t.stream ~tracing (consume t);
  t

let last_trace t = if t.last_trace = 0 then None else Some t.last_trace

let trace_spans t id =
  List.filter (fun s -> s.Span.trace_id = id) t.spans
  |> List.sort (fun a b -> compare a.Span.span_id b.Span.span_id)

let all_spans t =
  List.sort (fun a b -> compare a.Span.span_id b.Span.span_id) t.spans
