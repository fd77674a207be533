(** Character string names (paper §5.1, §5.3).

    A CSname is a byte sequence, usually human-readable. This module
    holds the pure name-syntax operations — component splitting, the
    '[prefix]' syntax of context prefix servers — and the standard
    request fields that travel with every CSname on the wire. *)

val separator : char
val prefix_open : char
val prefix_close : char

(** The standard fields of every CSname request (§5.3): the name, the
    index at which interpretation begins or continues, and the context
    identifier to interpret it in. The server half of the context is
    implicit in the message's destination. Forwarding servers rewrite
    [index] and [context] and leave the rest of the message alone.

    [trace] carries the observability trace context ({!Vobs.Span.ctx})
    alongside the request; it adds nothing to {!segment_bytes}, so wire
    timings are unaffected by tracing. *)
type req = {
  name : string;
  index : int;
  context : Context.id;
  trace : Vobs.Span.ctx;
}

val make_req :
  ?index:int -> ?context:Context.id -> ?trace:Vobs.Span.ctx -> string -> req
val pp_req : Format.formatter -> req -> unit

(** The not-yet-interpreted part of the name. *)
val remaining : req -> string

(** [skip_separators name i] is the first index at or after [i] that is
    not a separator (or the length of [name]). *)
val skip_separators : string -> int -> int

(** [component_end name i] is the first index at or after [i] that holds
    a separator (or the length of [name]): the end of the component
    starting at [i]. *)
val component_end : string -> int -> int

(** The non-empty ['/']-separated components of [name] from index [i]
    on. *)
val components_from : string -> int -> string list

(** Non-empty ['/']-separated components of a byte string. *)
val components : string -> string list

(** Inverse of {!components} for canonical names. *)
val join : string list -> string

(** Does the uninterpreted part start with ['[']? Such names are routed
    to the context prefix server by the client run-time. *)
val starts_with_prefix : req -> bool

(** Where the last component of a name begins: past the separator
    before it or a leading ["\[prefix\]"]. A bare ["\[prefix\]"], with
    no component after it, names the prefix itself: 0. *)
val last_component : string -> int

(** Split ["\[prefix\]rest"] into the prefix and the index just past
    the closing bracket, where interpretation of the rest continues.
    [Error Illegal_name] on malformed syntax or a non-prefixed name. *)
val parse_prefix : req -> (string * int, Reply.code) result

(** Advance the index past one interpreted component (and surrounding
    separators) — the rewrite performed before forwarding (§5.4). Raises
    [Invalid_argument] if the component does not match the name text at
    the index. *)
val advance_past : req -> string -> req

(** The longest name a request can carry, in bytes: the message proper
    holds a name's length in 16 bits. *)
val max_length : int

(** Names may contain any byte except NUL and hold at most {!max_length}
    bytes; the index must lie within the name. *)
val validate : req -> (unit, Reply.code) result

(** Wire size of the name as an appended segment. *)
val segment_bytes : req -> int
