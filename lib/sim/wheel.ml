(* Hierarchical timer wheel: the simulator's event queue, tuned for the
   timer-heavy load of the kernel's retransmission machinery (most
   scheduled events are probe timers that are cancelled a few simulated
   milliseconds after being armed, hundreds of milliseconds before they
   would fire).

   Five levels of 32 slots bucket events by the tick distance from the
   cursor: level 0 holds events due within 32 ticks, level 1 within
   32^2, up to 32^5; anything farther sits in an overflow list that is
   re-seated when the wheels drain. A per-level occupancy bitmap (one
   int; 32 slots so every bit fits OCaml's 63-bit int — 64 slots would
   need bit 63, and [1 lsl 63] is 0) lets the cursor skip empty regions
   without visiting every tick, so an idle stretch costs O(boundaries
   crossed), not O(ticks).

   Ordering and determinism: ticks only bucket. When the cursor reaches
   a slot, its events move into a small binary [ready] heap ordered by
   the exact (time, seq) key — the same total order a binary heap over
   the same keys gives — so events executing out of one tick preserve
   scheduling order. Events
   scheduled at or before the cursor's tick (the cursor may sit ahead
   of simulated now after a peek) go straight to the ready heap, which
   keeps the global order exact in that case too.

   Storage: the nodes live in flat arrays (a slab), one entry per node
   and one array per field: the time in a float array (unboxed), the
   seq, the turns left, the value, the generation, and an int [next]
   link. A bucket list, the overflow list and the free list all thread
   through [next], and the ready heap holds entry indices, so placing,
   cascading and re-seating a node move ints and allocate nothing;
   scheduling an event copies its time from a flat cell, so no caller
   boxes it, and stores its value once; the clock rises to the next
   node's time through a flat cell too ([advance]). The arrays double
   when the free list runs dry and never shrink. An entry's index is
   the same from a node's push to its last turn, so a caller can keep
   data of its own for the node in an array indexed by it ([entry],
   [taken]).

   Cancellation is O(1): a node is marked dead and its value swapped
   for the wheel's blank (so what the value captured is garbage now,
   not when the cursor arrives), and the node is merely skipped (and
   freed) when the cursor would otherwise move it. A satisfied
   retransmit timer costs a few int stores instead of a heap
   percolation now and a dead pop later.

   Handles: a node handle is an immediate int packing the entry's index
   with the entry's generation, which goes up each time the entry is
   freed — when its node fires, or when a cancelled node is dropped. A
   handle whose node has gone names an older generation, so it cancels
   nothing even after the entry has been reused.

   Slot-collision argument (why one list per slot suffices): a level-l
   node is placed with delta in [32^l, 32^(l+1)), so its level-l digit
   (tick >> 5l, mod 32) differs from the cursor's and is reached within
   one level-l wrap; two ticks sharing a slot would have to differ by a
   multiple of 32^(l+1), which contradicts the delta bound. Hence every
   slot holds exactly one tick-value's events at any moment, and
   cascading a slot re-places events whose remaining delta is now
   strictly smaller. *)

(* Bucket width. Ordering is exact regardless of it; it only tunes
   bucketing efficiency. *)
let tick_ms = 0.25

(* The end of every list, and an empty bucket. *)
let nil = -1

(* A handle is [(generation lsl index_bits) lor index]. Generations
   wrap at 2^30, so a handle kept across 2^30 reuses of its entry
   could name a later node; nothing holds one that long. *)
type node = int

let index_bits = 32
let index_mask = (1 lsl index_bits) - 1
let gen_mask = (1 lsl 30) - 1

(* Negative, so it is no [push]'s handle, and [cancel] tests for it
   before it indexes anything. *)
let none = -1

(* A flat float: a record whose only field is a float stores it
   unboxed, so writing the field allocates nothing. *)
type cell = { mutable at : float }

type 'a t = {
  blank : 'a;  (* what a dead or free entry holds *)
  (* The slab, one array per field. [turns] counts how many more times
     [take] returns the node: 0 once it has fired or been cancelled,
     and on a free entry. *)
  mutable time : float array;
  mutable seq : int array;
  mutable turns : int array;
  mutable value : 'a array;
  mutable gen : int array;
  mutable next : int array;
  mutable free : int;  (* head of the free list *)
  mutable taken : int;  (* the entry of the last node [take] used up *)
  mutable next_seq : int;
  mutable cur : int;  (* cursor tick: slots at or before it are drained *)
  slots : int array;  (* list heads, 5 levels x 32 slots, flattened *)
  occ : int array;  (* per-level occupancy bitmap over its 32 slots *)
  mutable ready : int array;  (* due entries: a binary heap on (time, seq) *)
  mutable ready_len : int;
  mutable ovf : int;  (* beyond level 4's span *)
  mutable ovf_min : int;  (* smallest tick in [ovf]; -1 when empty *)
  mutable live_count : int;
  mutable total_count : int;  (* live + dead still inside the structure *)
  mutable cancelled_count : int;
}

let create ~blank =
  {
    blank;
    time = [||];
    seq = [||];
    turns = [||];
    value = [||];
    gen = [||];
    next = [||];
    free = nil;
    taken = nil;
    next_seq = 0;
    cur = 0;
    slots = Array.make 160 nil;
    occ = Array.make 5 0;
    ready = Array.make 16 0;
    ready_len = 0;
    ovf = nil;
    ovf_min = -1;
    live_count = 0;
    total_count = 0;
    cancelled_count = 0;
  }

let length t = t.live_count
let cancelled t = t.cancelled_count

(* --- the slab --- *)

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the slab and thread the new entries onto the free list,
   lowest index first. *)
let grow t =
  let n = Array.length t.time in
  let m = max 64 (2 * n) in
  t.time <- extend t.time m 0.0;
  t.seq <- extend t.seq m 0;
  t.turns <- extend t.turns m 0;
  t.value <- extend t.value m t.blank;
  t.gen <- extend t.gen m 0;
  t.next <- extend t.next m nil;
  for i = m - 1 downto n do
    t.next.(i) <- t.free;
    t.free <- i
  done

(* Free an entry: blank its value, so it keeps nothing alive, and bump
   its generation, so every handle on it goes stale. *)
let release t i =
  t.turns.(i) <- 0;
  t.value.(i) <- t.blank;
  t.gen.(i) <- (t.gen.(i) + 1) land gen_mask;
  t.next.(i) <- t.free;
  t.free <- i

let rec release_list t i =
  if i <> nil then begin
    let rest = t.next.(i) in
    release t i;
    release_list t rest
  end

(* --- the ready heap: entry indices by exact (time, seq) --- *)

let before t a b =
  let ta = t.time.(a) and tb = t.time.(b) in
  ta < tb || (ta = tb && t.seq.(a) < t.seq.(b))

(* Fill the hole at [h] with entry [i], moving earlier parents down. *)
let rec sift_up t h i =
  let p = (h - 1) / 2 in
  if h > 0 && before t i t.ready.(p) then begin
    t.ready.(h) <- t.ready.(p);
    sift_up t p i
  end
  else t.ready.(h) <- i

(* Fill the hole at [h] with entry [i], moving earlier children up. *)
let rec sift_down t h i =
  let l = (2 * h) + 1 in
  if l >= t.ready_len then t.ready.(h) <- i
  else begin
    let c =
      if l + 1 < t.ready_len && before t t.ready.(l + 1) t.ready.(l) then l + 1
      else l
    in
    if before t t.ready.(c) i then begin
      t.ready.(h) <- t.ready.(c);
      sift_down t c i
    end
    else t.ready.(h) <- i
  end

let ready_push t i =
  if t.ready_len = Array.length t.ready then
    t.ready <- extend t.ready (2 * t.ready_len) 0;
  t.ready_len <- t.ready_len + 1;
  sift_up t (t.ready_len - 1) i

let ready_remove_top t =
  t.ready_len <- t.ready_len - 1;
  if t.ready_len > 0 then sift_down t 0 t.ready.(t.ready_len)

(* --- placement --- *)

let add t level slot i =
  let h = (level lsl 5) + slot in
  t.next.(i) <- t.slots.(h);
  t.slots.(h) <- i;
  t.occ.(level) <- t.occ.(level) lor (1 lsl slot)

let place t i =
  let tick = int_of_float (t.time.(i) /. tick_ms) in
  let delta = tick - t.cur in
  if delta <= 0 then ready_push t i
  else if delta < 32 then add t 0 (tick land 31) i
  else if delta < 1024 then add t 1 ((tick lsr 5) land 31) i
  else if delta < 32768 then add t 2 ((tick lsr 10) land 31) i
  else if delta < 1048576 then add t 3 ((tick lsr 15) land 31) i
  else if delta < 33554432 then add t 4 ((tick lsr 20) land 31) i
  else begin
    t.next.(i) <- t.ovf;
    t.ovf <- i;
    if t.ovf_min < 0 || tick < t.ovf_min then t.ovf_min <- tick
  end

(* Re-place a detached list's entries, freeing the dead ones. *)
let rec replace t i =
  if i <> nil then begin
    let rest = t.next.(i) in
    if t.turns.(i) > 0 then place t i
    else begin
      t.total_count <- t.total_count - 1;
      release t i
    end;
    replace t rest
  end

(* The time goes from the cell into the float array without a box. *)
let push t cell ~turns v =
  if turns < 1 then invalid_arg "Wheel.push: turns must be positive";
  if t.free = nil then grow t;
  let i = t.free in
  t.free <- t.next.(i);
  t.time.(i) <- cell.at;
  t.seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.turns.(i) <- turns;
  t.value.(i) <- v;
  place t i;
  t.live_count <- t.live_count + 1;
  t.total_count <- t.total_count + 1;
  (t.gen.(i) lsl index_bits) lor i

let entry node = node land index_mask
let taken t = t.taken

let cancel t node =
  let i = node land index_mask in
  node <> none
  && t.gen.(i) = node lsr index_bits
  && t.turns.(i) > 0
  && begin
       t.turns.(i) <- 0;
       t.value.(i) <- t.blank;
       t.live_count <- t.live_count - 1;
       t.cancelled_count <- t.cancelled_count + 1;
       true
     end

(* Move a slot's events down: live ones re-place (into the ready heap
   once due), dead ones are freed here — cancellation's deferred
   cleanup. *)
let drain_slot t level slot =
  let h = (level lsl 5) + slot in
  let head = t.slots.(h) in
  t.occ.(level) <- t.occ.(level) land lnot (1 lsl slot);
  if head <> nil then begin
    t.slots.(h) <- nil;
    replace t head
  end

(* Index of the lowest set bit; [x] must be non-zero. Cold path (runs
   once per cursor hop), so a loop beats a de Bruijn table in clarity. *)
let ctz x =
  let rec go x i = if x land 1 = 1 then i else go (x lsr 1) (i + 1) in
  go x 0

(* The tick of the next occupied level-0 slot strictly after the
   cursor. Slot s holds the unique tick = s (mod 32) within
   (cur, cur + 32). *)
let next_l0_tick t =
  let base = t.cur land lnot 31 in
  let curslot = t.cur land 31 in
  let above = t.occ.(0) land lnot ((1 lsl (curslot + 1)) - 1) in
  if above <> 0 then base + ctz above else base + 32 + ctz t.occ.(0)

(* Re-place the overflow list against the current cursor: nodes now
   within level 4's span enter the wheel, the rest return to [ovf].
   Called whenever the cursor crosses a level-4 span boundary — every
   hop target is at most the next 32-aligned boundary, so the cursor
   provably stops at each 2^25-aligned tick it crosses and an overflow
   node (whose span boundary is strictly ahead at placement) can never
   be sailed past while it still sits in [ovf]. *)
let refill t =
  let head = t.ovf in
  if head <> nil then begin
    t.ovf <- nil;
    t.ovf_min <- -1;
    replace t head
  end

(* Advance the cursor to [target], performing the level cascades its
   boundary crossings require. Hops never skip an unprocessed boundary
   of an occupied level, so cascading only at the destination is
   sound. *)
let goto t target =
  t.cur <- target;
  if target land 33554431 = 0 then refill t;
  if target land 31 = 0 then begin
    if target land 1023 = 0 then begin
      if target land 32767 = 0 then begin
        if target land 1048575 = 0 then drain_slot t 4 ((target lsr 20) land 31);
        drain_slot t 3 ((target lsr 15) land 31)
      end;
      drain_slot t 2 ((target lsr 10) land 31)
    end;
    drain_slot t 1 ((target lsr 5) land 31)
  end;
  drain_slot t 0 (target land 31)

(* Everything left is dead: free it all without walking the cursor over
   it. *)
let purge t =
  for h = 0 to 159 do
    release_list t t.slots.(h);
    t.slots.(h) <- nil
  done;
  Array.fill t.occ 0 5 0;
  for k = 0 to t.ready_len - 1 do
    release t t.ready.(k)
  done;
  t.ready_len <- 0;
  release_list t t.ovf;
  t.ovf <- nil;
  t.ovf_min <- -1;
  t.total_count <- 0

(* All wheel levels drained: restart the hierarchy at the overflow
   list's earliest tick. Each overflow node is re-examined once per
   level-4 span, not per tick. *)
let reseat t =
  t.cur <- t.ovf_min;
  refill t

(* One cursor hop towards the next occupied tick. Precondition: the
   ready heap is empty and a live node exists somewhere. *)
let hop t =
  let next32 = ((t.cur lsr 5) + 1) lsl 5 in
  if t.occ.(0) <> 0 then goto t (min (next_l0_tick t) next32)
  else if t.occ.(1) <> 0 then goto t next32
  else if t.occ.(2) <> 0 then goto t (((t.cur lsr 10) + 1) lsl 10)
  else if t.occ.(3) <> 0 then goto t (((t.cur lsr 15) + 1) lsl 15)
  else if t.occ.(4) <> 0 then goto t (((t.cur lsr 20) + 1) lsl 20)
  else reseat t

(* Advance until the ready heap's top is a live node; false if no live
   node exists anywhere. The dispatch loop runs this once per event, so
   it allocates nothing. *)
let rec settle t =
  if t.ready_len > 0 then begin
    let i = t.ready.(0) in
    if t.turns.(i) > 0 then true
    else begin
      ready_remove_top t;
      t.total_count <- t.total_count - 1;
      release t i;
      settle t
    end
  end
  else if t.live_count = 0 then begin
    if t.total_count > 0 then purge t;
    false
  end
  else begin
    hop t;
    settle t
  end

(* The earliest live node's time goes from the float array into the
   flat clock without a box. *)
let advance t clock =
  if not (settle t) then invalid_arg "Wheel.advance: empty wheel";
  let time = t.time.(t.ready.(0)) in
  if time > clock.at then clock.at <- time

let due_by t limit = settle t && t.time.(t.ready.(0)) <= limit

(* A node with a turn left goes back under the next seq at its own
   time. Its key only grows, so it sinks from the top of the ready
   heap, where it already is. *)
let take t =
  if not (settle t) then invalid_arg "Wheel.take: empty wheel";
  let i = t.ready.(0) in
  if t.turns.(i) > 1 then begin
    t.turns.(i) <- t.turns.(i) - 1;
    t.seq.(i) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    sift_down t 0 i;
    t.blank
  end
  else begin
    let v = t.value.(i) in
    t.taken <- i;
    ready_remove_top t;
    t.live_count <- t.live_count - 1;
    t.total_count <- t.total_count - 1;
    release t i;
    v
  end
