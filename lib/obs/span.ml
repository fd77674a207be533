(* The span/trace model.

   A trace is one CSNH request followed across every server it visits;
   a span is one hop — the portion handled by a single process. The
   trace context [ctx] is the part that travels inside the standard
   CSname request fields: the trace id, the span id of the hop that
   (re)issued the request (the parent), and the simulated time it was
   (re)issued at, from which the receiving hop derives its queue wait.

   Spans carry no behaviour: creation, numbering and storage belong to
   [Hub], which builds them from span events; this module is the pure
   data model plus rendering. *)

type ctx = { trace : int; parent : int; sent_at : float }

(* The untraced context: trace id 0 means "no trace attached". It is
   the default on every request, so untraced operation costs one integer
   comparison per hop. *)
let no_ctx = { trace = 0; parent = 0; sent_at = 0.0 }

let is_traced c = c.trace <> 0

(* A span event: what one event of a producing layer does to the span
   store and the finished-operation feed. Each producer fills in its
   own reused record; only the store, when it keeps a span, allocates. *)
type verb = Open | Close | Tag | Done

type event = {
  mutable verb : verb;
  mutable ctx : ctx;
  mutable id : int;
  mutable op : string;
  mutable label : string;
  mutable host : string;
  mutable server : string;
  mutable pid : int;
  mutable context : int;
  mutable index : int;
  mutable note : string;
  mutable started : float;
}

let event () =
  {
    verb = Open;
    ctx = no_ctx;
    id = 0;
    op = "";
    label = "";
    host = "";
    server = "";
    pid = 0;
    context = 0;
    index = 0;
    note = "";
    started = 0.0;
  }

type t = {
  trace_id : int;
  span_id : int;
  parent_id : int;  (** 0 for a root span *)
  mutable op : string;  (** operation name, e.g. "Open" *)
  host : string;  (** host the handling process runs on *)
  server : string;  (** name of the handling process *)
  pid : int;  (** its pid, as an integer *)
  context : int;  (** context id interpretation ran in *)
  index_from : int;  (** name index on arrival *)
  mutable index_to : int;  (** name index consumed by this hop *)
  queue_wait : float;
      (** sim ms between the request being (re)issued and this hop
          starting on it: wire time plus queueing behind other work *)
  started : float;  (** sim ms when the hop started processing *)
  mutable finished : float;
  mutable outcome : string;  (** reply code, or "forward" *)
  mutable tags : string list;
      (** free-form annotations, newest first (e.g. "retry:2", "fault") *)
}

(* Annotations accumulate newest-first; [tags] presents them in the
   order they were added. *)
let tags s = List.rev s.tags

(* Time this hop itself spent on the request. *)
let service_ms s = s.finished -. s.started

let pp ppf s =
  Fmt.pf ppf
    "span %d.%d (parent %d) %s on %s/%s pid %d ctx %d name[%d..%d] wait \
     %.3f svc %.3f -> %s"
    s.trace_id s.span_id s.parent_id s.op s.host s.server s.pid s.context
    s.index_from s.index_to s.queue_wait (service_ms s) s.outcome;
  match tags s with
  | [] -> ()
  | ts -> Fmt.pf ppf " [%a]" Fmt.(list ~sep:comma string) ts

let to_json s =
  Json.Obj
    [
      ("trace_id", Json.Int s.trace_id);
      ("span_id", Json.Int s.span_id);
      ("parent_id", Json.Int s.parent_id);
      ("op", Json.String s.op);
      ("host", Json.String s.host);
      ("server", Json.String s.server);
      ("pid", Json.Int s.pid);
      ("context", Json.Int s.context);
      ("index_from", Json.Int s.index_from);
      ("index_to", Json.Int s.index_to);
      ("queue_wait_ms", Json.Float s.queue_wait);
      ("started_ms", Json.Float s.started);
      ("finished_ms", Json.Float s.finished);
      ("service_ms", Json.Float (service_ms s));
      ("outcome", Json.String s.outcome);
      ("tags", Json.List (List.map (fun t -> Json.String t) (tags s)));
    ]
