(** A name-domain server: one node of the hierarchical federated name
    tree.

    A CSNH server whose objects are naming entries — local sub-contexts,
    delegations to child domain servers, and leaf bindings into object
    servers. Ordinary CSname requests walk and forward per §5.4, so the
    tree is transparent to resolver-less clients; a MapContext request
    carrying the {!Vnaming.Vmsg.P_resolve_step} marker is answered
    instead of forwarded — a {!Vnaming.Vmsg.P_referral} (delegation
    record on the standard
    {!Vnaming.Vmsg.binding} stamp) when the walk crossed into a child
    domain, a terminal [P_context_spec] when it crossed the
    domain/object boundary or ended here. The caching {!Resolver}
    follows referrals root-to-leaf itself.

    Each context answers on itself as every flat context does
    ({!Vnaming.Csnh.flat_reply}): Open in any mode opens its directory,
    one record per entry, read through the I/O protocol. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

(** What a component names inside a domain context. *)
type entry =
  | Subcontext of Context.id  (** a context on this same server *)
  | Child of Context.spec  (** delegation to a child domain server *)
  | Bound of Context.spec  (** leaf binding into an object server *)

type t

(** The apex context a domain server answers in ([Well_known.default]). *)
val apex : Context.id

(** [start host ~name ()] boots a domain server process on [host]. *)
val start : Vmsg.t Kernel.host -> name:string -> unit -> t

(** Boot a fresh process (new pid) over the surviving delegation tables
    of a crashed incarnation — the tables are configuration, durable
    like a disk. Parents must re-stitch their delegation records to the
    new pid via {!set_entry}/{!delegate}. *)
val restart_from : t -> Vmsg.t Kernel.host -> t

val name : t -> string

(** The serving process; raises if the server was never started. *)
val pid : t -> Pid.t

val spec : t -> ?context:Context.id -> unit -> Context.spec

(** {1 Overload protection}

    Off by default; enabling stores the policy on the record and
    installs it on the live process. Like the delegation tables, the
    policy survives {!restart_from}. Default config:
    {!Vservices.Admission.name_server}. *)

val enable_admission :
  t ->
  Vmsg.t Kernel.domain ->
  ?config:Vservices.Admission.config ->
  unit ->
  unit

val disable_admission : t -> Vmsg.t Kernel.domain -> unit
val admission_config : t -> Vservices.Admission.config option

(** {1 Building the tree (configuration, not protocol)} *)

(** Add or replace an entry — replacement is how a parent re-stitches a
    delegation to a revived child's new pid. A [Subcontext] entry makes
    its context, empty, if it has none yet. *)
val set_entry :
  t -> ?ctx:Context.id -> string -> entry -> (unit, Reply.code) result

(** [delegate t component child] points [component] at a child domain
    server. *)
val delegate :
  t -> ?ctx:Context.id -> string -> Context.spec -> (unit, Reply.code) result

(** [bind t component target] makes [component] a leaf binding into an
    object server's context. *)
val bind :
  t -> ?ctx:Context.id -> string -> Context.spec -> (unit, Reply.code) result

(** The entries of a context, sorted by component name. *)
val entries : t -> ?ctx:Context.id -> unit -> (string * entry) list
