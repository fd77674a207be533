(* The event stream: every site of every layer — kernel, wire, and the
   naming, run-time and fault layers above them — reports once, as one
   typed event, and each consumer takes the kinds it needs from it: the
   Figure 1 timeline, the flight recorder ({!Eventlog}), the telemetry
   pump (a sampler driven by the events themselves, so it schedules
   nothing), and the hub's span store and finished-operation feed.

   A producing layer describes its events with a [layer] — the
   recorder's category and host label, the trace id, the layer's one
   printer, and for the layers above the kernel the span event an event
   carries — and names the consumers of each kind, a fixed property of
   the kind. An event is the layer's own reused, mutable record, and its
   time is the emitter's flat clock, read only by a consumer that keeps
   or compares it, so emitting allocates nothing until a consumer
   stores or prints the event.
   Which consumers listen is one mask, kept up to date as each one
   toggles, so the guard every site pays is one test.

   Counting by kind needs no event: a producer keeps its counts where
   it reports — the kernel one int per (host, kind), the layers above
   it a table per (host, server) by registry op, held here — and a
   source registered with the registry ({!Metrics.add_source}) moves
   them in at every read. *)

let timeline = 1
let recorder = 2
let pump = 4
let spans = 8
let ops = 16

type 'e layer = {
  column : string;
  cat : 'e -> Eventlog.cat;
  host : 'e -> string;
  trace : 'e -> int;
  pp : timeline:bool -> Format.formatter -> 'e -> unit;
  span : ('e -> Span.event) option;
}

type line = { at : float; column : string; text : string }

type t = {
  events : Eventlog.t;
  mutable active : int;  (* the consumers listening *)
  mutable lines : line list;  (* newest first *)
  mutable pump_interval : float;  (* 0 = disarmed *)
  mutable pump_next : float;
  mutable pump_sample : now:float -> unit;
  mutable on_span : clock:Vsim.Engine.cell -> Span.event -> unit;
  (* The producers' counts by (host, server), then by registry op. *)
  counts : (string * string, (string, int ref) Hashtbl.t) Hashtbl.t;
}

let set_bit t bit on =
  t.active <- (if on then t.active lor bit else t.active land lnot bit)

let create events =
  let t =
    {
      events;
      active = (if Eventlog.enabled events then recorder else 0);
      lines = [];
      pump_interval = 0.0;
      pump_next = 0.0;
      pump_sample = (fun ~now:_ -> ());
      on_span = (fun ~clock:_ _ -> ());
      counts = Hashtbl.create 16;
    }
  in
  Eventlog.set_on_toggle events (set_bit t recorder);
  t

let listening t c = t.active land c <> 0

let emit t (layer : _ layer) ~consumers ~(clock : Vsim.Engine.cell) e =
  let c = consumers land t.active in
  if c land timeline <> 0 then
    t.lines <-
      {
        at = clock.at;
        column = layer.column;
        text = Fmt.str "%a" (layer.pp ~timeline:true) e;
      }
      :: t.lines;
  if c land recorder <> 0 then
    Eventlog.record t.events ~at:clock.at ~cat:(layer.cat e)
      ~host:(layer.host e) ~trace:(layer.trace e)
      (Fmt.str "%a" (layer.pp ~timeline:false) e);
  if c land pump <> 0 && clock.at >= t.pump_next then begin
    let at = clock.at in
    t.pump_next <- at +. t.pump_interval;
    t.pump_sample ~now:at
  end;
  if c land (spans lor ops) <> 0 then
    match layer.span with Some span -> t.on_span ~clock (span e) | None -> ()

let set_timeline t on = set_bit t timeline on
let lines t = List.rev t.lines

(* Times relative to the first line: a transaction's timeline, where
   absolute simulated time is noise. *)
let pp_timeline ppf t =
  match lines t with
  | [] -> ()
  | first :: _ as lines ->
      List.iter
        (fun l ->
          Fmt.pf ppf "%+8.3f ms  %-10s %s@." (l.at -. first.at) l.column l.text)
        lines

let arm_pump t ~interval_ms ~now sample =
  t.pump_interval <- interval_ms;
  t.pump_next <- now;
  t.pump_sample <- sample;
  set_bit t pump (interval_ms > 0.0)

let disarm_pump t =
  t.pump_interval <- 0.0;
  set_bit t pump false

let pump_armed t = listening t pump

let consume_spans t ~tracing f =
  t.on_span <- f;
  set_bit t spans tracing;
  set_bit t ops true

(* Move one producer's counts into the registry and zero them.
   [ops.(i)] names counter [i] ("" = kept, never exported). The first
   [family] counters land together, zeros included, once any of them
   is nonzero; the rest land only when nonzero. *)
let scrape_counts m ~host ~server ~ops ~family counts =
  let rec any i = i < family && (counts.(i) <> 0 || any (i + 1)) in
  let whole_family = any 0 in
  Array.iteri
    (fun i op ->
      let n = counts.(i) in
      if op <> "" && if i < family then whole_family else n <> 0 then begin
        counts.(i) <- 0;
        Metrics.incr ~by:n m ~host ~server ~op
      end)
    ops

let counts t ~host ~server =
  match Hashtbl.find_opt t.counts (host, server) with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 8 in
      Hashtbl.add t.counts (host, server) table;
      table

(* Every table into the registry; the tables empty, so a key lands once
   hit since the last read, even when it added nothing. *)
let scrape t m =
  Hashtbl.iter
    (fun (host, server) table ->
      Hashtbl.iter (fun op n -> Metrics.incr ~by:!n m ~host ~server ~op) table;
      Hashtbl.clear table)
    t.counts
