(* Character string names (§5.1): a CSname is a sequence of bytes,
   usually human-readable. This module holds the pure name-syntax
   operations: component splitting, the '[prefix]' syntax of the context
   prefix servers, and the standard request fields that accompany every
   CSname on the wire. *)

let separator = '/'
let prefix_open = '['
let prefix_close = ']'

(* The standard fields of every CSname request (§5.3): the name, the
   index at which interpretation is to begin or continue, and the
   context identifier it is interpreted in. The server-pid part of the
   context is implicit in the message's destination.

   [trace] piggybacks the observability trace context on the request;
   it contributes nothing to [segment_bytes], so wire timings are
   unchanged whether tracing is on or off. *)
type req = {
  name : string;
  index : int;
  context : Context.id;
  trace : Vobs.Span.ctx;
}

let make_req ?(index = 0) ?(context = Context.Well_known.default)
    ?(trace = Vobs.Span.no_ctx) name =
  { name; index; context; trace }

let pp_req ppf r =
  Fmt.pf ppf "%S[%d..] in %a" r.name r.index Context.pp_id r.context

(* The part of the name not yet interpreted. *)
let remaining r =
  if r.index >= String.length r.name then ""
  else String.sub r.name r.index (String.length r.name - r.index)

(* Scanning a name in place. [skip_separators name i] is the first index
   at or after [i] that is not a separator; [component_end name i] the
   first separator (or the end) at or after [i]. *)
let rec skip_separators name i =
  if i < String.length name && name.[i] = separator then
    skip_separators name (i + 1)
  else i

let rec component_end name i =
  if i < String.length name && name.[i] <> separator then
    component_end name (i + 1)
  else i

(* The non-empty '/'-separated components of [name] from index [i] on. *)
let rec components_from name i =
  let start = skip_separators name i in
  if start >= String.length name then []
  else
    let stop = component_end name start in
    String.sub name start (stop - start) :: components_from name stop

let components s = components_from s 0

let join = String.concat (String.make 1 separator)

(* Does the uninterpreted part of the name start with a context prefix? *)
let starts_with_prefix r =
  r.index < String.length r.name && r.name.[r.index] = prefix_open

(* [last_component name] is where the last component of [name] begins,
   never inside a leading '[prefix]'; a bare "[prefix]" is its own last
   component, so it begins at 0. *)
let last_component name =
  let floor =
    if String.length name > 0 && name.[0] = prefix_open then
      try String.index name prefix_close + 1 with Not_found -> 0
    else 0
  in
  let i = ref (String.length name) in
  while !i > floor && name.[!i - 1] = separator do decr i done;
  if !i = floor then 0
  else begin
    while !i > floor && name.[!i - 1] <> separator do decr i done;
    !i
  end

(* [parse_prefix r] splits "[prefix]rest" into the prefix and the index
   just past the closing bracket, where interpretation continues. *)
let parse_prefix r =
  if not (starts_with_prefix r) then Error Reply.Illegal_name
  else
    match String.index_from r.name r.index prefix_close with
    | exception Not_found -> Error Reply.Illegal_name
    | close when close = r.index + 1 -> Error Reply.Illegal_name
    | close ->
        Ok (String.sub r.name (r.index + 1) (close - r.index - 1), close + 1)

(* [advance_past r component] moves the index past one interpreted
   component (and a following separator, if any), for forwarding a
   partially interpreted request (§5.4). *)
let advance_past r component =
  let start = skip_separators r.name r.index in
  let len = String.length component in
  if
    start + len <= String.length r.name
    && String.sub r.name start len = component
  then { r with index = skip_separators r.name (start + len) }
  else invalid_arg "Csname.advance_past: component does not match name"

(* The message proper holds a name's length in 16 bits
   ([Vmsg.proper_bytes]). *)
let max_length = 0xffff

(* Valid names may contain any byte except NUL; a '[' is only legal as
   the very first character of the uninterpreted part (prefix syntax). *)
let validate r =
  if String.length r.name > max_length then Error Reply.Illegal_name
  else if String.contains r.name '\000' then Error Reply.Illegal_name
  else if r.index < 0 || r.index > String.length r.name then
    Error Reply.Illegal_name
  else Ok ()

(* Wire size of the name as an appended segment. *)
let segment_bytes r = String.length r.name
