(* The event stream: every kernel and wire site reports once, as one
   typed event, and each consumer takes the kinds it needs from it — the
   Figure 1 timeline, the flight recorder ({!Eventlog}) and the
   telemetry pump, a sampler driven by the events themselves so it
   schedules nothing.

   A producing layer describes its events with a [layer] — the
   recorder's category and host label, the trace id, and the layer's
   one printer — and names the consumers of each kind, a fixed
   property of the kind. An event is the layer's own reused, mutable
   record, so emitting
   allocates nothing until a consumer stores or prints it. Counting by
   kind needs no event: a producer keeps one int per (host or port,
   kind), and a source registered with the registry
   ({!Metrics.add_source}) moves them in at every read. *)

let timeline = 1
let recorder = 2
let pump = 4

type 'e layer = {
  column : string;
  cat : 'e -> Eventlog.cat;
  host : 'e -> string;
  trace : 'e -> int;
  pp : timeline:bool -> Format.formatter -> 'e -> unit;
}

type line = { at : float; column : string; text : string }

type t = {
  events : Eventlog.t;
  mutable timeline_on : bool;
  mutable lines : line list;  (* newest first *)
  mutable pump_interval : float;  (* 0 = disarmed *)
  mutable pump_next : float;
  mutable pump_sample : now:float -> unit;
}

let create events =
  {
    events;
    timeline_on = false;
    lines = [];
    pump_interval = 0.0;
    pump_next = 0.0;
    pump_sample = (fun ~now:_ -> ());
  }

let listening t c =
  (c land timeline <> 0 && t.timeline_on)
  || (c land recorder <> 0 && Eventlog.enabled t.events)
  || (c land pump <> 0 && t.pump_interval > 0.0)

let emit t (layer : _ layer) ~consumers:c ~at e =
  if c land timeline <> 0 && t.timeline_on then
    t.lines <-
      {
        at;
        column = layer.column;
        text = Fmt.str "%a" (layer.pp ~timeline:true) e;
      }
      :: t.lines;
  if c land recorder <> 0 && Eventlog.enabled t.events then
    Eventlog.record t.events ~at ~cat:(layer.cat e) ~host:(layer.host e)
      ~trace:(layer.trace e)
      (Fmt.str "%a" (layer.pp ~timeline:false) e);
  if c land pump <> 0 && t.pump_interval > 0.0 && at >= t.pump_next then begin
    t.pump_next <- at +. t.pump_interval;
    t.pump_sample ~now:at
  end

let set_timeline t on = t.timeline_on <- on
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
  t.pump_sample <- sample

let disarm_pump t = t.pump_interval <- 0.0
let pump_armed t = t.pump_interval > 0.0

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
