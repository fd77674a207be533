(* The discrete-event core: a virtual clock and an ordered queue of
   pending actions. All simulated concurrency in the V-System
   reproduction (kernels, network, servers) bottoms out in [schedule].

   Determinism: events at equal times run in scheduling order (sequence
   numbers break ties), and nothing that affects the simulation
   consults wall-clock time or ambient randomness, so a run is a pure
   function of the initial scenario and PRNG seed. (The engine does
   read the process clock around [run], but only to report events/sec;
   no simulated behaviour depends on it.)

   The queue is a hierarchical timer wheel ({!Wheel}): O(1) push and
   cancel, tuned for the kernel's cancel-heavy retransmission timers. *)

(* A cancellable handle on a scheduled event. *)
type timer = (unit -> unit) Wheel.node

type t = {
  id : int;
  mutable now : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable running : bool;
  wheel : (unit -> unit) Wheel.t;
  (* Last-run throughput, for `vsh engine stats` and the bench harness:
     events executed by the most recent [run] and the CPU seconds it
     took. *)
  mutable run_start_events : int;
  mutable run_start_cpu : float;
  mutable last_run_events : int;
  mutable last_run_cpu_s : float;
}

(* Events executed across every engine in the process — lets the bench
   harness report per-experiment event counts without threading each
   experiment's private engine out. *)
let global_executed_events = ref 0
let global_executed () = !global_executed_events

exception Time_went_backwards of { now : float; requested : float }

let created = ref 0

let create () =
  incr created;
  {
    id = !created;
    now = 0.0;
    next_seq = 0;
    executed = 0;
    running = false;
    wheel = Wheel.create ();
    run_start_events = 0;
    run_start_cpu = 0.0;
    last_run_events = 0;
    last_run_cpu_s = 0.0;
  }

let id t = t.id
let now t = t.now
let pending t = Wheel.length t.wheel
let executed t = t.executed
let cancelled_timers t = Wheel.cancelled t.wheel

(* The one push path. NaN compares false with every time and infinity
   has no tick, so either would run out of order and move the clock
   backwards. *)
let push t time ~turns action =
  if not (Float.is_finite time) then invalid_arg "Engine: non-finite time";
  if time < t.now then raise (Time_went_backwards { now = t.now; requested = time });
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Wheel.push t.wheel ~time ~seq ~turns action

let timer_at t time action = push t time ~turns:1 action

let timer ?(delay = 0.0) t action =
  if delay < 0.0 then invalid_arg "Engine.timer: negative delay";
  timer_at t (t.now +. delay) action

(* The action every cancelled node keeps: one shared no-op, so the
   cancelled closure and whatever it captures are garbage at cancel
   time. The dead node itself still waits for the queue to drop it. *)
let cancelled_action () = ()

let cancel t handle =
  ignore (Wheel.cancel t.wheel handle ~blank:cancelled_action : bool)

let schedule_at t time action = ignore (timer_at t time action : timer)

let schedule ?(delay = 0.0) t action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (t.now +. delay) action

(* Two turns on one node: the first only re-queues it (see [execute]),
   under the seq a zero-delay push from an action would draw. *)
let defer_at t time action = ignore (push t time ~turns:2 action : timer)

let execute t node =
  t.now <- Wheel.time node;
  t.executed <- t.executed + 1;
  incr global_executed_events;
  if Wheel.live node then begin
    (* A deferred node's first turn. *)
    Wheel.requeue t.wheel node ~seq:t.next_seq;
    t.next_seq <- t.next_seq + 1
  end
  else (Wheel.value node) ()

(* The wheel skips dead nodes (cancelled timers) and answers without
   allocating, so the dispatch loop below costs no words per event. *)
let step t =
  Wheel.settle t.wheel
  && begin
       execute t (Wheel.take t.wheel);
       true
     end

let run ?until ?max_events t =
  if t.running then invalid_arg "Engine.run: already running";
  t.running <- true;
  t.run_start_events <- t.executed;
  t.run_start_cpu <- Sys.time ();
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue () =
    !budget > 0
    && Wheel.settle t.wheel
    &&
    match until with
    | None -> true
    | Some limit -> Wheel.time (Wheel.next t.wheel) <= limit
  in
  let finally () =
    t.running <- false;
    t.last_run_events <- t.executed - t.run_start_events;
    t.last_run_cpu_s <- Sys.time () -. t.run_start_cpu
  in
  (try
     while continue () do
       decr budget;
       execute t (Wheel.take t.wheel)
     done
   with e ->
     finally ();
     raise e);
  finally ();
  (* If we stopped on a time horizon, advance the clock to it so that a
     subsequent [run ~until:later] resumes from the horizon. *)
  match until with
  | Some limit when t.now < limit && pending t > 0 -> ()
  | Some limit when t.now < limit -> t.now <- limit
  | _ -> ()

let last_run_events t = t.last_run_events
let last_run_cpu_s t = t.last_run_cpu_s

let events_per_sec t =
  if t.running then begin
    let dt = Sys.time () -. t.run_start_cpu in
    if dt <= 0.0 then 0.0
    else float_of_int (t.executed - t.run_start_events) /. dt
  end
  else if t.last_run_cpu_s > 0.0 then
    float_of_int t.last_run_events /. t.last_run_cpu_s
  else 0.0
