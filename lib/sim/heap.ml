(* Array-based binary min-heap, used as the simulator's event queue.
   Elements are ordered by a user-supplied comparison on the element type;
   ties must be broken by the caller (the engine uses sequence numbers) so
   that the heap never has to guarantee stability itself. *)

type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~compare = { compare; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t witness =
  let capacity = max 16 (2 * Array.length t.data) in
  let data = Array.make capacity witness in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.compare t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && t.compare t.data.(left) t.data.(!smallest) < 0 then
    smallest := left;
  if right < t.size && t.compare t.data.(right) t.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  if t.size = Array.length t.data then grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* The vacated slot must not keep the popped element (and whatever
         its closures capture) reachable; duplicating a live element is
         the cheapest way to clear it that works for every element type
         (no dummy value exists for an arbitrary ['a]). *)
      t.data.(t.size) <- t.data.(0);
      sift_down t 0
    end
    else t.data <- [||];
    Some top
  end

(* The option-free pair the timer wheel's dispatch loop uses: [top]
   reads the smallest element and [remove_top] drops it, neither
   allocating. Unlike [pop], draining keeps the backing array, so a
   heap that fills and empties on every tick does not regrow from 16
   slots each time; the element removed last stays referenced by slot 0
   until the next push overwrites it. *)
let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.data.(0)

let remove_top t =
  if t.size = 0 then invalid_arg "Heap.remove_top: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- t.data.(0);
    sift_down t 0
  end

let clear t =
  t.data <- [||];
  t.size <- 0

(* Drain the heap into an ordered list; used by tests. *)
let pop_all t =
  let rec loop acc =
    match pop t with None -> List.rev acc | Some x -> loop (x :: acc)
  in
  loop []
