(* The event layer of everything above the kernel, shaped like the
   kernel's (see Vobs.Stream): each reporting site makes one call. A
   reporter — a server process, a run-time environment, an injector —
   owns one reused event record, so reporting allocates nothing until a
   consumer keeps or prints an event, and [pp_event] writes every
   recorder label. A count is no event: it adds to the reporter's
   (host, server) block in the hub's stream, which every registry read
   scrapes in. Span start, finish and tag are events for the hub's span
   store; an operation's Done feeds the latency histograms and the SLO
   engine. Nothing here advances the clock. *)

module Kernel = Vkernel.Kernel
module Hub = Vobs.Hub
module Span = Vobs.Span
module Stream = Vobs.Stream

(* The kinds of event that reach a consumer: a hop's or an operation
   root's span event, or a recorder event. *)
type kind =
  | Hop
  | Op
  | Op_done
  | Fan_out
  | Delegation
  | Stale_serve
  | Cycle
  | Retry
  | Unavailable
  | Failover
  | Fault

(* The meaning of [a] to [d], [x], [name] and [detail] is the kind's,
   as [pp_event] reads them; a payload typed above this layer (an
   error, a fault action) arrives rendered in [detail], and only while
   the recorder listens. *)
type event = {
  mutable kind : kind;
  ev_host : string;
  mutable trace : int;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  mutable x : float;
  mutable name : string;
  mutable detail : string;
  span : Span.event;
}

(* The layer's one printer. No kind goes to the timeline. *)
let pp_event ~timeline:_ ppf e =
  match e.kind with
  | Fan_out ->
      Fmt.pf ppf "fan-out %s (origin %d, seq %d) to %d member(s)"
        (Vmsg.Op.to_string e.a) e.b e.c e.d
  | Delegation -> Fmt.pf ppf "resolver: delegation %S -> pid %d" e.name e.a
  | Stale_serve ->
      Fmt.pf ppf "resolver: serving stale %S (refresh failed: %s)" e.name
        e.detail
  | Cycle -> Fmt.pf ppf "resolver: delegation cycle at pid %d index %d" e.a e.b
  | Retry ->
      Fmt.pf ppf "retry attempt %d after %s (wait %.1fms)" e.a e.detail e.x
  | Unavailable -> Fmt.pf ppf "unavailable after %d attempt(s)" e.a
  | Failover -> Fmt.pf ppf "failover %d -> pid %d" e.a e.b
  | Fault | Hop | Op | Op_done -> Fmt.string ppf e.detail

(* The consumers each kind goes to. *)
let consumers kind =
  let open Stream in
  match kind with
  | Hop | Op -> spans
  | Op_done -> spans lor ops
  | Retry | Failover -> recorder lor spans
  | Fan_out | Delegation | Stale_serve | Cycle | Unavailable | Fault -> recorder

let layer =
  {
    Stream.column = "naming";
    cat =
      (fun e ->
        match e.kind with
        | Fan_out -> Vobs.Eventlog.Replica
        | Fault -> Vobs.Eventlog.Fault
        | _ -> Vobs.Eventlog.Client);
    host = (fun e -> e.ev_host);
    trace = (fun e -> e.trace);
    pp = pp_event;
    span = Some (fun e -> e.span);
  }

type t = {
  domain : Vmsg.t Kernel.domain;
  engine : Vsim.Engine.t;
  host : string;
  server : string;
  mutable bound : Hub.t option;  (* the hub [counts] belongs to *)
  mutable counts : (string, int ref) Hashtbl.t;  (* by registry op *)
  ev : event;
}

let make domain ~host ~server ?(label = host) ?(pid = 0) () =
  let span = Span.event () in
  span.Span.host <- host;
  span.server <- server;
  span.pid <- pid;
  {
    domain;
    engine = Kernel.engine_of_domain domain;
    host;
    server;
    bound = None;
    counts = Hashtbl.create 1;
    ev =
      {
        kind = Hop;
        ev_host = label;
        trace = 0;
        a = 0;
        b = 0;
        c = 0;
        d = 0;
        x = 0.0;
        name = "";
        detail = "";
        span;
      };
  }

let of_self self ~server =
  make (Kernel.domain_of_self self)
    ~host:(Kernel.self_host_name self)
    ~server
    ~pid:(Vkernel.Pid.to_int (Kernel.self_pid self))
    ()

let of_process self = of_self self ~server:(Kernel.self_name self)
let now r = Vsim.Engine.now r.engine

(* Counts go to the attached hub's table for (host, server), found once
   per hub; its registry reads scrape them. *)
let add r op n =
  match Kernel.obs r.domain with
  | None -> ()
  | Some h as hub -> (
      if hub != r.bound then begin
        r.bound <- hub;
        r.counts <- Stream.counts (Hub.stream h) ~host:r.host ~server:r.server
      end;
      match Hashtbl.find r.counts op with
      | c -> c := !c + n
      | exception Not_found -> Hashtbl.add r.counts op (ref n))

let count r op = add r op 1

(* The one guard. *)
let listening r consumers =
  match Kernel.obs r.domain with
  | Some hub -> Stream.listening (Hub.stream hub) consumers
  | None -> false

let recording r = listening r Stream.recorder

let emit_to r kind consumers =
  match Kernel.obs r.domain with
  | Some hub ->
      r.ev.kind <- kind;
      Stream.emit (Hub.stream hub) layer ~consumers
        ~clock:(Vsim.Engine.clock r.engine) r.ev
  | None -> ()

let emit r kind = emit_to r kind (consumers kind)

let open_span r kind ~ctx ~op ~context ~index =
  let s = r.ev.span in
  s.Span.verb <- Span.Open;
  s.ctx <- ctx;
  s.op <- op;
  s.context <- context;
  s.index <- index;
  emit r kind;
  s.Span.id

let tag r kind ~span note consumers =
  let s = r.ev.span in
  s.Span.verb <- Span.Tag;
  s.id <- span;
  s.note <- note;
  emit_to r kind consumers

let request r ~counted ~op (req : Csname.req) =
  count r counted;
  if Span.is_traced req.Csname.trace && listening r Stream.spans then
    open_span r Hop ~ctx:req.Csname.trace ~op ~context:req.Csname.context
      ~index:req.Csname.index
  else 0

let finish r ~counted ~span ~index_to outcome =
  if counted then count r outcome;
  if span <> 0 then begin
    let s = r.ev.span in
    s.Span.verb <- Span.Close;
    s.id <- span;
    s.index <- index_to;
    s.note <- outcome;
    emit r Hop
  end

(* The request a traced hop sends on: same trace, [span] as parent,
   reissued now. *)
let child r ~trace ~span (req : Csname.req) =
  if span = 0 then req
  else
    { req with Csname.trace = { Span.trace; parent = span; sent_at = now r } }

let forward r ~span (req : Csname.req) =
  finish r ~counted:true ~span ~index_to:req.Csname.index "forward";
  child r ~trace:req.Csname.trace.Span.trace ~span req

(* --- recorder events --- *)

let record r kind ~op ~trace a b =
  count r op;
  if recording r then begin
    let e = r.ev in
    e.trace <- trace;
    e.a <- a;
    e.b <- b;
    emit r kind
  end

let cycle r ~trace ~pid ~index = record r Cycle ~op:"loop" ~trace pid index

let unavailable r ~trace ~attempts =
  record r Unavailable ~op:"unavailable" ~trace attempts 0

let fan_out r ~trace ~code ~origin ~seq ~members =
  r.ev.c <- seq;
  r.ev.d <- members;
  record r Fan_out ~op:"replicate-write" ~trace code origin

let delegation r ~trace ~key ~pid =
  r.ev.name <- key;
  record r Delegation ~op:"referral" ~trace pid 0

let stale_serve r ~trace ~key pp why =
  if recording r then begin
    r.ev.name <- key;
    r.ev.detail <- Fmt.str "%a" pp why
  end;
  record r Stale_serve ~op:"stale-serve" ~trace 0 0

let fault r ~op label =
  if op <> "" then count r op;
  if recording r then begin
    r.ev.trace <- 0;
    r.ev.detail <- label;
    emit r Fault
  end

let op_start r ~op ~context =
  match Kernel.obs r.domain with
  | Some hub when Stream.listening (Hub.stream hub) Stream.spans ->
      let t0 = now r in
      let ctx = Hub.start_trace hub ~now:t0 in
      if not (Span.is_traced ctx) then Span.no_ctx
      else
        let id = open_span r Op ~ctx ~op:("client:" ^ op) ~context ~index:0 in
        { Span.trace = ctx.Span.trace; parent = id; sent_at = t0 }
  | Some _ | None -> Span.no_ctx

let op_done r ~op ~(root : Span.ctx) ~started ~cached outcome =
  if listening r (consumers Op_done) then begin
    let s = r.ev.span in
    s.Span.verb <- Span.Done;
    s.ctx <- root;
    s.op <- op;
    s.label <-
      (if cached && Span.is_traced root then "client:" ^ op ^ "[cached]"
       else "");
    s.note <- outcome;
    s.started <- started;
    emit r Op_done
  end

(* A retry or a failover, tagged [prefix ^ a] on the operation's root;
   a first retry also tags it "fault". *)
let trouble r kind ~op ~(root : Span.ctx) ~prefix a b =
  count r op;
  if listening r (consumers kind) then begin
    let traced = Span.is_traced root && listening r Stream.spans in
    let span = if traced then root.Span.parent else 0 in
    if traced && kind = Retry && a = 1 then
      tag r kind ~span "fault" Stream.spans;
    let e = r.ev in
    e.trace <- root.Span.trace;
    e.a <- a;
    e.b <- b;
    tag r kind ~span
      (if traced then prefix ^ string_of_int a else "")
      (consumers kind)
  end

let retry r ~root ~attempt ~wait pp why =
  if recording r then begin
    r.ev.x <- wait;
    r.ev.detail <- Fmt.str "%a" pp why
  end;
  trouble r Retry ~op:"retry" ~root ~prefix:"retry:" attempt 0

let failover r ~root ~n ~pid =
  trouble r Failover ~op:"failover" ~root ~prefix:"failover:" n pid
