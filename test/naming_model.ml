(* Reference models of the naming layer's lookups: the list-based §5.4
   walk and the cut-list name-cache lookup the library ran before it
   scanned names in place, kept as the oracles the rewritten [Csnh.walk]
   and [Name_cache] are checked against (as fabric_model.ml is for the
   switched fabric). Both build lists and re-slice strings freely; they
   are only fit for tests. *)

open Vnaming

(* --- the walk --- *)

(* The walk as it was: split the uninterpreted part into a component
   list, advance a request record past each component descended
   through, and rewrite the context at a cross. *)
let walk ~valid_context ~lookup req =
  match Csname.validate req with
  | Error code -> Csnh.Fail code
  | Ok () ->
      if Csname.starts_with_prefix req then Csnh.Fail Reply.Illegal_name
      else if not (valid_context req.Csname.context) then
        Csnh.Fail Reply.Bad_context
      else begin
        let rec loop ctx req comps =
          match comps with
          | [] -> Csnh.Local (ctx, [])
          | component :: rest -> (
              match lookup ctx component with
              | Csnh.Descend ctx' ->
                  loop ctx' (Csname.advance_past req component) rest
              | Csnh.Cross spec | Csnh.Delegate spec ->
                  let req = Csname.advance_past req component in
                  Csnh.Forward
                    (spec, { req with Csname.context = spec.Context.context })
              | Csnh.Stop -> Csnh.Local (ctx, comps))
        in
        loop req.Csname.context req (Csname.components (Csname.remaining req))
      end

(* --- the name cache --- *)

let normalize_key key =
  let n = String.length key in
  let rec last i =
    if i > 0 && key.[i - 1] = Csname.separator then last (i - 1) else i
  in
  let n' = last n in
  if n' = n then key else String.sub key 0 n'

(* Every prefix of [name] that ends at a component boundary, deepest
   first: the whole name, each cut before a '/', and the cut just after
   a ']'. *)
let candidate_cuts name =
  let n = String.length name in
  let cuts = ref [] in
  let add i = if i > 0 && not (List.mem i !cuts) then cuts := i :: !cuts in
  add n;
  for i = 0 to n - 1 do
    if name.[i] = Csname.separator then add i;
    if name.[i] = Csname.prefix_close then add (i + 1)
  done;
  List.sort_uniq (fun a b -> compare b a) !cuts

type entry = {
  key : string;
  value : Name_cache.value;
  expires_at : float option;
}

(* Entries in most-recently-used-first order. *)
type cache = {
  capacity : int;
  mutable entries : entry list;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable insertions : int;
  mutable neg_hits : int;
  mutable stale_hits : int;
}

let create ~capacity =
  {
    capacity;
    entries = [];
    hits = 0;
    misses = 0;
    stale = 0;
    evictions = 0;
    insertions = 0;
    neg_hits = 0;
    stale_hits = 0;
  }

let is_negative = function
  | Name_cache.Negative _ -> true
  | Name_cache.Bound _ | Name_cache.Delegation _ -> false

let stats c =
  {
    Name_cache.hits = c.hits;
    misses = c.misses;
    stale = c.stale;
    evictions = c.evictions;
    insertions = c.insertions;
    size = List.length c.entries;
    neg_hits = c.neg_hits;
    stale_hits = c.stale_hits;
    neg_size = List.length (List.filter (fun e -> is_negative e.value) c.entries);
  }

let lookup c key = List.find_opt (fun e -> e.key = key) c.entries
let remove c key = c.entries <- List.filter (fun e -> e.key <> key) c.entries

(* Move (or put) [e] at the most recently used end. *)
let promote c e = c.entries <- e :: List.filter (fun x -> x.key <> e.key) c.entries

let learn_at c ~now ?ttl_ms key value =
  let key = normalize_key key in
  if key = "" then None
  else
    let e =
      { key; value; expires_at = Option.map (fun ttl -> now +. ttl) ttl_ms }
    in
    match lookup c key with
    | Some _ ->
        promote c e;
        None
    | None ->
        promote c e;
        c.insertions <- c.insertions + 1;
        if List.length c.entries > c.capacity then begin
          let victim = List.nth c.entries c.capacity in
          remove c victim.key;
          c.evictions <- c.evictions + 1;
          Some victim.key
        end
        else None

let learn c key spec = learn_at c ~now:0.0 key (Name_cache.Bound spec)

let find c name =
  let rec try_cuts = function
    | [] ->
        c.misses <- c.misses + 1;
        None
    | cut :: rest -> (
        let key = normalize_key (String.sub name 0 cut) in
        match lookup c key with
        | Some ({ value = Name_cache.Bound spec; _ } as e) ->
            promote c e;
            c.hits <- c.hits + 1;
            Some (key, spec)
        | Some _ | None -> try_cuts rest)
  in
  try_cuts (candidate_cuts name)

(* The lookup the run-time makes for an operation on a name itself:
   [find] of the name's parent, the name less its last component and
   the separators after it; a leading '[prefix]' is never cut into, and
   a bare one is the last component itself, so its parent is empty. *)
let find_parent c name =
  let floor =
    if String.starts_with ~prefix:"[" name then
      match String.index_opt name Csname.prefix_close with
      | Some i -> i + 1
      | None -> 0
    else 0
  in
  let body = normalize_key name in
  let stop =
    match String.rindex_opt body Csname.separator with
    | Some i when i >= floor -> i + 1
    | Some _ | None -> if String.length body > floor then floor else 0
  in
  find c (String.sub name 0 stop)

let find_at c ~now name =
  let hit e hfresh =
    Some
      {
        Name_cache.hkey = e.key;
        hvalue = e.value;
        hfresh;
        hexpires_at = e.expires_at;
      }
  in
  let rec try_cuts = function
    | [] ->
        c.misses <- c.misses + 1;
        None
    | cut :: rest -> (
        match lookup c (normalize_key (String.sub name 0 cut)) with
        | None -> try_cuts rest
        | Some e -> (
            let fresh =
              match e.expires_at with None -> true | Some x -> now < x
            in
            if fresh then begin
              promote c e;
              if is_negative e.value then c.neg_hits <- c.neg_hits + 1
              else c.hits <- c.hits + 1;
              hit e true
            end
            else
              match e.value with
              | Name_cache.Bound _ ->
                  promote c e;
                  c.stale_hits <- c.stale_hits + 1;
                  hit e false
              | Name_cache.Delegation _ | Name_cache.Negative _ ->
                  remove c e.key;
                  try_cuts rest))
  in
  try_cuts (candidate_cuts name)

let invalidate c key =
  let key = normalize_key key in
  match lookup c key with
  | None -> false
  | Some _ ->
      remove c key;
      c.stale <- c.stale + 1;
      true

let dump c = List.map (fun e -> (e.key, e.value, e.expires_at)) c.entries
