(* The client-side name-resolution cache.

   A bounded LRU mapping name prefixes — always whole components, cut at
   '/' boundaries or just after a ']' — to what is known about them.
   Three kinds of knowledge coexist:

   - [Bound]: the (server-pid, context-id) implementing the prefix — a
     route target. Learned from the bindings servers stamp into
     successful CSname replies (see {!Csnh}) and from explicit
     MapContext results.
   - [Delegation]: a referral to a domain server responsible for the
     prefix — a point an iterative resolver may resume its walk from,
     but not a route target for the operation itself.
   - [Negative]: an authoritative failure ([Not_found]/[Bad_context])
     for the prefix. Because name interpretation is left-to-right, a
     prefix that authoritatively does not exist dooms every longer name
     under it, so a negative entry answers for its whole subtree.

   Entries may carry an expiry time ([learn_at ~ttl_ms]); entries
   learned through the original TTL-less interface never expire, so the
   pre-TTL users of this module behave bit-identically. Lookups come in
   two flavours: the original [find] (TTL-blind, positive-only — the
   prefix-cache protocol validates on use instead) and [find_at], which
   knows the clock and reports freshness so a resolver can implement
   negative caching and stale-serving. The cache itself never talks to
   the network, and a reply proving a cached binding stale
   ([Bad_context], [Not_found], or an IPC failure) makes the run-time
   call {!invalidate}; the next route falls back to the next-shallower
   cached prefix, or to the prefix server.

   Everything here is pure bookkeeping: no simulated time is charged, so
   enabling the counters perturbs nothing. *)

type value =
  | Bound of Context.spec
  | Delegation of Context.spec
  | Negative of Reply.code

type node = {
  key : string;
  mutable value : value;
  mutable expires_at : float option;  (* [None]: never expires *)
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  insertions : int;
  size : int;
  neg_hits : int;
  stale_hits : int;
  neg_size : int;
}

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable insertions : int;
  mutable neg_hits : int;
  mutable stale_hits : int;
  mutable neg_count : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Name_cache.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    stale = 0;
    evictions = 0;
    insertions = 0;
    neg_hits = 0;
    stale_hits = 0;
    neg_count = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    stale = t.stale;
    evictions = t.evictions;
    insertions = t.insertions;
    size = length t;
    neg_hits = t.neg_hits;
    stale_hits = t.stale_hits;
    neg_size = t.neg_count;
  }

let is_negative = function Negative _ -> true | Bound _ | Delegation _ -> false

let note_removed t node =
  if is_negative node.value then t.neg_count <- t.neg_count - 1

let clear t =
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None;
  t.neg_count <- 0

(* --- the intrusive doubly-linked recency list --- *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.mru <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  let this = Some node in
  node.prev <- None;
  node.next <- t.mru;
  (match t.mru with Some m -> m.prev <- this | None -> t.lru <- this);
  t.mru <- this

let touch t node =
  match t.mru with
  | Some m when m == node -> ()
  | Some _ | None ->
      unlink t node;
      push_front t node

(* --- keys ---

   A key is a name prefix cut at a component boundary, stored without
   trailing separators: "[fs0]", "[fs0]src", "[fs0]src/lib". *)

(* The end of [name]'s prefix of length [i] without its trailing
   separators. *)
let rec key_end name i =
  if i > 0 && name.[i - 1] = Csname.separator then key_end name (i - 1) else i

let normalize_key key =
  let n = key_end key (String.length key) in
  if n = String.length key then key else String.sub key 0 n

(* A cut is a position of [name] that ends a candidate prefix: the end
   of the name, a position before a '/', or one just after a ']' (a bare
   "[prefix]" binds even when no separator follows). Lookups scan back
   from the end of the name and visit the cuts deepest first.

   [next_key name c] is the end of the key of the deepest cut at or
   before [c], 0 when there is none. Every cut between a key's end and
   its cut shares that key, so the next distinct key lies below the
   key's end; and once a key is empty, so is every shallower one
   (empty keys are never stored). *)
let is_cut name c =
  c = String.length name
  || name.[c] = Csname.separator
  || name.[c - 1] = Csname.prefix_close

let rec next_key name c =
  if c <= 0 then 0
  else if is_cut name c then key_end name c
  else next_key name (c - 1)

(* The original TTL-blind lookup: the deepest positive binding, whatever
   its age — the prefix-cache protocol validates entries on use, not on
   a clock. Referrals and negative entries are invisible to it. *)
let rec find_below t name c =
  let e = next_key name c in
  if e = 0 then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    let key = String.sub name 0 e in
    match Hashtbl.find t.table key with
    | { value = Bound spec; _ } as node ->
        touch t node;
        t.hits <- t.hits + 1;
        Some (key, spec)
    | { value = Delegation _ | Negative _; _ } | (exception Not_found) ->
        find_below t name (e - 1)

let find t name = find_below t name (String.length name)

let mem t key = Hashtbl.mem t.table (normalize_key key)

(* --- the TTL-aware lookup --- *)

type hit = {
  hkey : string;
  hvalue : value;
  hfresh : bool;  (** within its TTL (entries without one are always fresh) *)
  hexpires_at : float option;
}

let fresh_at ~now node =
  match node.expires_at with None -> true | Some e -> now < e

let remove_node t node =
  unlink t node;
  Hashtbl.remove t.table node.key;
  note_removed t node

(* [find_at t ~now name]: the deepest cached prefix, with freshness.
   Fresh entries of any kind are returned as-is. An expired [Bound]
   entry is still returned (marked stale) — it is the stale-serving
   candidate when the authoritative walk cannot be refreshed. Expired
   referrals and negative entries carry no salvageable answer, so they
   are dropped on sight and the search falls to the next-shallower
   cut. *)
let rec find_at_below t ~now name c =
  let e = next_key name c in
  if e = 0 then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    let key = String.sub name 0 e in
    match Hashtbl.find t.table key with
    | exception Not_found -> find_at_below t ~now name (e - 1)
    | node ->
        if fresh_at ~now node then begin
          touch t node;
          (match node.value with
          | Negative _ -> t.neg_hits <- t.neg_hits + 1
          | Bound _ | Delegation _ -> t.hits <- t.hits + 1);
          Some
            {
              hkey = key;
              hvalue = node.value;
              hfresh = true;
              hexpires_at = node.expires_at;
            }
        end
        else begin
          match node.value with
          | Bound _ ->
              touch t node;
              t.stale_hits <- t.stale_hits + 1;
              Some
                {
                  hkey = key;
                  hvalue = node.value;
                  hfresh = false;
                  hexpires_at = node.expires_at;
                }
          | Delegation _ | Negative _ ->
              remove_node t node;
              find_at_below t ~now name (e - 1)
        end

let find_at t ~now name = find_at_below t ~now name (String.length name)

(* --- insertion --- *)

let evict_over_capacity t =
  if Hashtbl.length t.table > t.capacity then (
    match t.lru with
    | Some victim ->
        remove_node t victim;
        t.evictions <- t.evictions + 1;
        Some victim.key
    | None -> None)
  else None

(* [learn_at t ~now ?ttl_ms key value] inserts or refreshes an entry at
   MRU position, expiring [ttl_ms] after [now] (never, when [ttl_ms] is
   omitted), evicting the LRU entry when over capacity. Returns the
   evicted key so the caller can account for it. *)
let learn_at t ~now ?ttl_ms key value =
  let key = normalize_key key in
  if key = "" then None
  else
    let expires_at = Option.map (fun ttl -> now +. ttl) ttl_ms in
    match Hashtbl.find_opt t.table key with
    | Some node ->
        note_removed t node;
        node.value <- value;
        node.expires_at <- expires_at;
        if is_negative value then t.neg_count <- t.neg_count + 1;
        touch t node;
        None
    | None ->
        let node = { key; value; expires_at; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node;
        t.insertions <- t.insertions + 1;
        if is_negative value then t.neg_count <- t.neg_count + 1;
        evict_over_capacity t

(* The original TTL-less interface: a positive binding that never
   expires — exactly the pre-TTL behaviour. *)
let learn t key spec = learn_at t ~now:0.0 key (Bound spec)

(* On-use invalidation: a reply proved this entry wrong. *)
let invalidate t key =
  let key = normalize_key key in
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some node ->
      remove_node t node;
      t.stale <- t.stale + 1;
      true

(* Bindings in MRU-to-LRU order, positives only (the original shape,
   for tests and inspection). *)
let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node ->
        let acc =
          match node.value with
          | Bound spec -> (node.key, spec) :: acc
          | Delegation _ | Negative _ -> acc
        in
        walk acc node.next
  in
  walk [] t.mru

(* Every entry in MRU-to-LRU order with its expiry, for the TTL
   inspection commands. *)
let dump t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value, node.expires_at) :: acc) node.next
  in
  walk [] t.mru

let pp_value ppf = function
  | Bound spec -> Fmt.pf ppf "bound %a" Context.pp_spec spec
  | Delegation spec -> Fmt.pf ppf "delegation %a" Context.pp_spec spec
  | Negative code -> Fmt.pf ppf "negative %a" Reply.pp code
