(** The span/trace model: a trace follows one CSNH request across every
    server it visits; a span is one hop. See {!Hub} for creation and
    storage — this module is the pure data model. *)

(** What travels with a request: trace id, parent span id, and the
    simulated time the request was (re)issued. *)
type ctx = { trace : int; parent : int; sent_at : float }

(** The untraced context (trace id 0), the default on every request. *)
val no_ctx : ctx

val is_traced : ctx -> bool

(** {1 Span events}

    What a producing layer's event does to the span store and to the
    finished-operation feed (see {!Stream.spans}, {!Stream.ops}): one
    reused, mutable record per producer, so reporting allocates
    nothing until the store keeps a span. *)

type verb =
  | Open  (** start a hop's span under [ctx] *)
  | Close  (** finish span [id] *)
  | Tag  (** annotate span [id] with [note] *)
  | Done
      (** a client operation finished: close its root span [ctx.parent],
          and feed its latency to the histograms and the SLO engine *)

type event = {
  mutable verb : verb;
  mutable ctx : ctx;  (** Open: the request's; Done: the root's *)
  mutable id : int;
      (** Close, Tag: the span; Open: the new span's, set by the store
          (0 when none opened) *)
  mutable op : string;
      (** Open: the span's op; Done: the operation, as histograms key it *)
  mutable label : string;  (** Done: the root's final op; [""] keeps it *)
  mutable host : string;
  mutable server : string;
  mutable pid : int;
  mutable context : int;
  mutable index : int;
      (** Open: the name index on arrival; Close: the index consumed,
          or [-1] to keep the opening one *)
  mutable note : string;  (** Close, Done: the outcome; Tag: the tag *)
  mutable started : float;  (** Done: when the operation began *)
}

(** A fresh event record for one producer. *)
val event : unit -> event

type t = {
  trace_id : int;
  span_id : int;
  parent_id : int;  (** 0 for a root span *)
  mutable op : string;
  host : string;
  server : string;
  pid : int;
  context : int;
  index_from : int;
  mutable index_to : int;
  queue_wait : float;
      (** sim ms between issue and this hop starting: wire + queueing *)
  started : float;
  mutable finished : float;
  mutable outcome : string;  (** reply code, or "forward" *)
  mutable tags : string list;
      (** free-form annotations, newest first (e.g. "retry:2", "fault") *)
}

(** Tags in the order they were added. *)
val tags : t -> string list

(** Time this hop itself spent on the request, in simulated ms. *)
val service_ms : t -> float

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
