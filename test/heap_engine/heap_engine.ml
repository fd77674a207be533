(* The binary-heap event queue: every timer is one heap node ordered by
   (time, seq); a cancel marks the node dead and the run loop drops dead
   nodes as they surface. *)

module type S = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> float
  val pending : t -> int
  val executed : t -> int
  val cancelled_timers : t -> int
  val schedule : ?delay:float -> t -> (unit -> unit) -> unit
  val defer_at : t -> float -> (unit -> unit) -> unit
  val timer : ?delay:float -> t -> (unit -> unit) -> timer
  val cancel : t -> timer -> unit
  val run : ?until:float -> ?max_events:int -> t -> unit
  val last_run_events : t -> int
  val last_run_cpu_s : t -> float
end

type timer = {
  time : float;
  seq : int;
  mutable action : unit -> unit;
  mutable live : bool;
}

type t = {
  mutable now : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable pending : int;
  mutable cancelled : int;
  heap : timer Vsim.Heap.t;
  mutable last_run_events : int;
  mutable last_run_cpu_s : float;
}

let global_executed_events = ref 0
let global_executed () = !global_executed_events

let compare a b =
  match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c

let create () =
  {
    now = 0.0;
    next_seq = 0;
    executed = 0;
    pending = 0;
    cancelled = 0;
    heap = Vsim.Heap.create ~compare;
    last_run_events = 0;
    last_run_cpu_s = 0.0;
  }

let now t = t.now
let pending t = t.pending
let executed t = t.executed
let cancelled_timers t = t.cancelled

let timer_at t time action =
  let node = { time; seq = t.next_seq; action; live = true } in
  t.next_seq <- t.next_seq + 1;
  Vsim.Heap.push t.heap node;
  t.pending <- t.pending + 1;
  node

let timer ?(delay = 0.0) t action = timer_at t (t.now +. delay) action
let schedule ?delay t action = ignore (timer ?delay t action : timer)

(* The pair the engine's one-node [defer_at] stands for. *)
let defer_at t time action =
  ignore (timer_at t time (fun () -> schedule t action) : timer)

let cancel t node =
  if node.live then begin
    node.live <- false;
    node.action <- ignore;
    t.pending <- t.pending - 1;
    t.cancelled <- t.cancelled + 1
  end

(* The earliest live timer, popping the dead ones above it. *)
let rec next t =
  match Vsim.Heap.peek t.heap with
  | Some node when not node.live ->
      ignore (Vsim.Heap.pop t.heap : timer option);
      next t
  | top -> top

let run ?until ?(max_events = max_int) t =
  let start_events = t.executed and start_cpu = Sys.time () in
  let due node = match until with None -> true | Some l -> node.time <= l in
  let rec loop budget =
    if budget > 0 then
      match next t with
      | Some node when due node ->
          ignore (Vsim.Heap.pop t.heap : timer option);
          node.live <- false;
          t.pending <- t.pending - 1;
          t.now <- node.time;
          t.executed <- t.executed + 1;
          incr global_executed_events;
          node.action ();
          loop (budget - 1)
      | _ -> ()
  in
  loop max_events;
  t.last_run_events <- t.executed - start_events;
  t.last_run_cpu_s <- Sys.time () -. start_cpu;
  match until with
  | Some limit when t.now < limit && t.pending = 0 -> t.now <- limit
  | _ -> ()

let last_run_events t = t.last_run_events
let last_run_cpu_s t = t.last_run_cpu_s
