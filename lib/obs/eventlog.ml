(* The flight recorder: a bounded, structured log of notable events.

   Where metrics aggregate and spans follow one request, the event log
   answers "what happened around t=23400?" — kernel sends and forwards,
   retransmission probes, frames lost, partitions cut and healed,
   balancer picks, replica fan-outs, every fault the injector applied
   or skipped. Each event carries the simulated time, a category, the
   host it happened on, a rendered label, and the active trace id when
   the triggering request carried one, so a dump joins against the span
   store by trace id.

   Disabled by default: with [enabled = false], [record] is one boolean
   test, and nothing here ever reads the simulation clock — callers
   pass [~at] — so runs are bit-identical with the recorder on or off.

   The store is bounded like a real flight recorder: newest events
   survive, oldest are trimmed (amortised, half the capacity at a
   time), and [dropped] counts what the trim discarded so a dump that
   lost its beginning says so instead of pretending to be complete. *)

type cat = Kernel | Net | Fault | Replica | Balancer | Client | Slo | Admission

let cat_to_string = function
  | Kernel -> "kernel"
  | Net -> "net"
  | Fault -> "fault"
  | Replica -> "replica"
  | Balancer -> "balancer"
  | Client -> "client"
  | Slo -> "slo"
  | Admission -> "admission"

type event = {
  seq : int;  (* monotonic, survives trimming: gaps reveal drops *)
  at : float;  (* simulated ms *)
  cat : cat;
  host : string;
  label : string;
  trace : int;  (* active trace id; 0 = none *)
}

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable events : event list;  (* newest first, trimmed at capacity *)
  mutable count : int;
  mutable next_seq : int;
  mutable dropped : int;
  mutable on_drop : int -> unit;  (* called with each trim's drop count *)
  mutable on_toggle : bool -> unit;  (* called when [enabled] is set *)
}

let create ?(capacity = 20_000) () =
  if capacity < 2 then invalid_arg "Eventlog.create: capacity < 2";
  {
    enabled = false;
    capacity;
    events = [];
    count = 0;
    next_seq = 1;
    dropped = 0;
    on_drop = ignore;
    on_toggle = ignore;
  }

let enabled t = t.enabled
let set_enabled t flag =
  t.enabled <- flag;
  t.on_toggle flag

let count t = t.count
let dropped t = t.dropped
let set_on_drop t f = t.on_drop <- f
let set_on_toggle t f = t.on_toggle <- f

let clear t =
  t.events <- [];
  t.count <- 0;
  t.dropped <- 0

let record t ~at ~cat ~host ?(trace = 0) label =
  if t.enabled then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.events <- { seq; at; cat; host; label; trace } :: t.events;
    t.count <- t.count + 1;
    if t.count > t.capacity then begin
      (* Drop the oldest half; amortises the O(n) trim. *)
      let keep = t.capacity / 2 in
      let lost = t.count - keep in
      t.dropped <- t.dropped + lost;
      t.events <- List.filteri (fun i _ -> i < keep) t.events;
      t.count <- keep;
      t.on_drop lost
    end
  end

let events t = List.rev t.events

let event_to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("at_ms", Json.Float e.at);
      ("cat", Json.String (cat_to_string e.cat));
      ("host", Json.String e.host);
      ("label", Json.String e.label);
      ("trace", Json.Int e.trace);
    ]

let to_json t =
  Json.Obj
    [
      ("dropped", Json.Int t.dropped);
      ("events", Json.List (List.map event_to_json (events t)));
    ]

let pp_event ppf e =
  let trace = if e.trace = 0 then "" else Printf.sprintf " trace %d" e.trace in
  Fmt.pf ppf "t=%9.1f %-8s %-10s %s%s" e.at (cat_to_string e.cat) e.host
    e.label trace

(* Newest [limit] events, oldest first — the tail of the recording. *)
let pp ?limit ppf t =
  if not t.enabled then Fmt.pf ppf "(recorder off)@."
  else begin
    let tail =
      match limit with
      | None -> events t
      | Some n -> List.filteri (fun i _ -> i < n) t.events |> List.rev
    in
    (match tail with
    | [] -> Fmt.pf ppf "(no events)@."
    | _ -> List.iter (fun e -> Fmt.pf ppf "%a@." pp_event e) tail);
    if t.dropped > 0 then Fmt.pf ppf "(%d older events dropped)@." t.dropped
  end
