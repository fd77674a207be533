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

   Cancellation is O(1): a node is marked dead, its value is swapped
   for a caller-supplied blank (so what the value captured is garbage
   now, not when the cursor arrives), and the node is merely skipped
   (and dropped) when the cursor would otherwise move it. A satisfied
   retransmit timer costs two stores instead of a heap percolation now
   and a dead pop later.

   Slot-collision argument (why one list per slot suffices): a level-l
   node is placed with delta in [32^l, 32^(l+1)), so its level-l digit
   (tick >> 5l, mod 32) differs from the cursor's and is reached within
   one level-l wrap; two ticks sharing a slot would have to differ by a
   multiple of 32^(l+1), which contradicts the delta bound. Hence every
   slot holds exactly one tick-value's events at any moment, and
   cascading a slot re-places events whose remaining delta is now
   strictly smaller. *)

(* [n_turns] is the liveness mark: how many more times [take] returns
   the node, 0 once it has fired or been cancelled. A node pushed with
   two turns comes back from its first [take] still live, and
   [requeue] gives it a fresh seq at the same time. *)
type 'a node = {
  n_time : float;
  mutable n_seq : int;
  mutable n_value : 'a;
  mutable n_turns : int;
}

let make ~time ~seq ~turns v =
  { n_time = time; n_seq = seq; n_value = v; n_turns = turns }

let time n = n.n_time
let value n = n.n_value
let live n = n.n_turns > 0

(* Cancellation: mark the node dead, then release the value; true if
   it was live (so cancelling an already-fired timer is naturally a
   no-op). *)
let kill n ~blank =
  live n
  && begin
       n.n_turns <- 0;
       n.n_value <- blank;
       true
     end

let compare_node a b =
  let c = Float.compare a.n_time b.n_time in
  if c <> 0 then c else Int.compare a.n_seq b.n_seq

(* Bucket width. Ordering is exact regardless of it; it only tunes
   bucketing efficiency. *)
let tick_ms = 0.25

type 'a t = {
  mutable cur : int;  (* cursor tick: slots at or before it are drained *)
  slots : 'a node list array;  (* 5 levels x 32 slots, flattened *)
  occ : int array;  (* per-level occupancy bitmap over its 32 slots *)
  ready : 'a node Heap.t;  (* due nodes, exact (time, seq) order *)
  mutable ovf : 'a node list;  (* beyond level 4's span *)
  mutable ovf_min : int;  (* smallest tick in [ovf]; -1 when empty *)
  mutable live_count : int;
  mutable total_count : int;  (* live + dead still inside the structure *)
  mutable cancelled_count : int;
}

let create () =
  {
    cur = 0;
    slots = Array.make 160 [];
    occ = Array.make 5 0;
    ready = Heap.create ~compare:compare_node;
    ovf = [];
    ovf_min = -1;
    live_count = 0;
    total_count = 0;
    cancelled_count = 0;
  }

let length t = t.live_count
let is_empty t = t.live_count = 0
let cancelled t = t.cancelled_count

let tick_of time = int_of_float (time /. tick_ms)

let add t level slot node =
  let i = (level lsl 5) + slot in
  t.slots.(i) <- node :: t.slots.(i);
  t.occ.(level) <- t.occ.(level) lor (1 lsl slot)

let place t node =
  let tick = tick_of node.n_time in
  let delta = tick - t.cur in
  if delta <= 0 then Heap.push t.ready node
  else if delta < 32 then add t 0 (tick land 31) node
  else if delta < 1024 then add t 1 ((tick lsr 5) land 31) node
  else if delta < 32768 then add t 2 ((tick lsr 10) land 31) node
  else if delta < 1048576 then add t 3 ((tick lsr 15) land 31) node
  else if delta < 33554432 then add t 4 ((tick lsr 20) land 31) node
  else begin
    t.ovf <- node :: t.ovf;
    if t.ovf_min < 0 || tick < t.ovf_min then t.ovf_min <- tick
  end

(* Re-place moved nodes in list order, dropping the dead ones. A plain
   loop, not [List.iter]: a slot drains on nearly every occupied tick,
   and the iterator's closure would cost words each time. *)
let rec replace t = function
  | [] -> ()
  | n :: rest ->
      if live n then place t n else t.total_count <- t.total_count - 1;
      replace t rest

let push t ~time ~seq ~turns v =
  if turns < 1 then invalid_arg "Wheel.push: turns must be positive";
  let node = make ~time ~seq ~turns v in
  place t node;
  t.live_count <- t.live_count + 1;
  t.total_count <- t.total_count + 1;
  node

(* The node's own tick is at or behind the cursor ([take] just returned
   it), so it goes straight to the ready heap. *)
let requeue t node ~seq =
  if not (live node) then invalid_arg "Wheel.requeue: node is not live";
  node.n_seq <- seq;
  Heap.push t.ready node;
  t.total_count <- t.total_count + 1

let cancel t node ~blank =
  if kill node ~blank then begin
    t.live_count <- t.live_count - 1;
    t.cancelled_count <- t.cancelled_count + 1;
    true
  end
  else false

(* Move a slot's events down: live ones re-place (into the ready heap
   once due), dead ones are dropped here — cancellation's deferred
   cleanup. *)
let drain_slot t level slot =
  let i = (level lsl 5) + slot in
  match t.slots.(i) with
  | [] -> t.occ.(level) <- t.occ.(level) land lnot (1 lsl slot)
  | nodes ->
      t.slots.(i) <- [];
      t.occ.(level) <- t.occ.(level) land lnot (1 lsl slot);
      replace t nodes

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
  match t.ovf with
  | [] -> ()
  | nodes ->
      t.ovf <- [];
      t.ovf_min <- -1;
      replace t nodes

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

(* Everything left is dead: drop it all so cancelled actions (and their
   captures) become collectable without walking the cursor over them. *)
let purge t =
  Array.fill t.slots 0 160 [];
  Array.fill t.occ 0 5 0;
  Heap.clear t.ready;
  t.ovf <- [];
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
   it allocates nothing: no option crosses it or the calls below. *)
let rec settle t =
  if Heap.length t.ready > 0 then begin
    let n = Heap.top t.ready in
    if live n then true
    else begin
      Heap.remove_top t.ready;
      t.total_count <- t.total_count - 1;
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

let next t =
  if settle t then Heap.top t.ready else invalid_arg "Wheel.next: empty wheel"

(* A node with a turn left stays live and counted: its taker hands it
   back through [requeue]. *)
let take t =
  let node = next t in
  Heap.remove_top t.ready;
  if node.n_turns > 1 then node.n_turns <- node.n_turns - 1
  else begin
    node.n_turns <- 0;
    t.live_count <- t.live_count - 1
  end;
  t.total_count <- t.total_count - 1;
  node
