(** The event layer of the CSNH, prefix and domain servers, the
    resolver, the client run-time, the file server's I/O, replica
    catch-up and the fault injector, shaped like the kernel's (see
    {!Vobs.Stream}): one call per site, one reused event per reporter,
    one printer for every recorder label, and counts scraped in at every
    registry read under the same (host, server, op) keys as before.
    Span start, finish and tag are events for the hub's span store; an
    operation's Done event feeds the latency histograms and the SLO
    engine. *)

(** A reporter: one server process, run-time environment or injector,
    reporting under (host, server). *)
type t

(** [label] is the recorder's host label (default [host]); [pid] goes
    on spans. *)
val make :
  Vmsg.t Vkernel.Kernel.domain ->
  host:string ->
  server:string ->
  ?label:string ->
  ?pid:int ->
  unit ->
  t

(** A process reporting under [server] from its own host. *)
val of_self : Vmsg.t Vkernel.Kernel.self -> server:string -> t

(** A server process reporting under its own name. *)
val of_process : Vmsg.t Vkernel.Kernel.self -> t

(** [count r op] counts one under the registry op [op]. *)
val count : t -> string -> unit

(** [add r op n] counts [n]; the key exists even when [n] is 0. *)
val add : t -> string -> int -> unit

(** A request, counted under [counted]: opens the hop's span [op] under
    the request's trace, returning its id (0 when none opened). *)
val request : t -> counted:string -> op:string -> Csname.req -> int

(** Closes [span] (0 = none) with [outcome], counted when [counted];
    [index_to < 0] keeps the opening index. *)
val finish : t -> counted:bool -> span:int -> index_to:int -> string -> unit

(** A forward of the rewritten request, re-parented under [span]. *)
val forward : t -> span:int -> Csname.req -> Csname.req

(** The request re-parented under [span] of [trace], reissued now. *)
val child : t -> trace:int -> span:int -> Csname.req -> Csname.req

(** A write-all fan-out of op [code] stamped (origin, seq). *)
val fan_out :
  t -> trace:int -> code:int -> origin:int -> seq:int -> members:int -> unit

(** The resolver followed a referral for [key] to [pid]. *)
val delegation : t -> trace:int -> key:string -> pid:int -> unit

(** The resolver found a delegation cycle at ([pid], [index]). *)
val cycle : t -> trace:int -> pid:int -> index:int -> unit

(** The resolver served [key] stale after [why] (rendered by [pp] only
    while the recorder listens). *)
val stale_serve :
  t -> trace:int -> key:string -> (Format.formatter -> 'a -> unit) -> 'a -> unit

(** A fault and its timeline text, counted under [op] unless [""]. *)
val fault : t -> op:string -> string -> unit

(** Opens an operation's root span ["client:" ^ op] when the hub traces
    and keeps the trace: the root's context, or {!Vobs.Span.no_ctx}. *)
val op_start : t -> op:string -> context:int -> Vobs.Span.ctx

(** Closes the root (labelled ["[cached]"] when [cached]) and feeds the
    (host, server, op) latency histogram and the SLO engine. *)
val op_done :
  t ->
  op:string ->
  root:Vobs.Span.ctx ->
  started:float ->
  cached:bool ->
  string ->
  unit

(** A retry after [why], waiting [wait] ms; tags the root. *)
val retry :
  t ->
  root:Vobs.Span.ctx ->
  attempt:int ->
  wait:float ->
  (Format.formatter -> 'a -> unit) ->
  'a ->
  unit

(** An operation's [n]th failover, to [pid]; tags the root. *)
val failover : t -> root:Vobs.Span.ctx -> n:int -> pid:int -> unit

(** An operation gave up after [attempts]. *)
val unavailable : t -> trace:int -> attempts:int -> unit
