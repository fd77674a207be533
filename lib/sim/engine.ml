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

(* A cancellable handle on a scheduled event: an immediate int. *)
type timer = Wheel.node

let no_timer = Wheel.none

(* The one time cell: every push takes its time from here, so no time
   is boxed on its way to the wheel's float array. A push reads it
   before anything else, so one cell serves every engine. *)
type cell = Wheel.cell = { mutable at : float }

let due = { at = 0.0 }

type fiber = (unit, unit) Effect.Deep.continuation

type t = {
  id : int;
  (* The clock, flat: an advance writes it without a box. [now] is a
     boxed copy for [now]'s callers, refreshed only when a caller finds
     the clock has moved, so it boxes at most once per instant. *)
  clock : cell;
  mutable now : float;
  mutable executed : int;
  mutable running : bool;
  wheel : (unit -> unit) Wheel.t;
  (* The poster of delays: each continuation waits at its node's wheel
     entry (see [park]). *)
  delays : (fiber, unit) poster;
  (* Last-run throughput, for `vsh engine stats` and the bench harness:
     events executed by the most recent [run] and the CPU seconds it
     took. *)
  mutable run_start_events : int;
  mutable run_start_cpu : float;
  mutable last_run_events : int;
  mutable last_run_cpu_s : float;
}

(* A post's payload waits in two arrays at its node's entry. The
   arrays are always longer than every entry posted into them, and
   their last slot, which no entry reaches before they grow past it,
   holds the blank a run writes over the payload it takes: the payload
   that last grew them, a value that stays alive anyway. *)
and ('a, 'b) poster = {
  engine : t;
  run : 'a -> 'b -> unit;
  mutable firsts : 'a array;
  mutable seconds : 'b array;
  mutable action : unit -> unit;
}

(* Events executed across every engine in the process — lets the bench
   harness report per-experiment event counts without threading each
   experiment's private engine out. *)
let global_executed_events = ref 0
let global_executed () = !global_executed_events

exception Time_went_backwards of { now : float; requested : float }

(* What every cancelled or fired node's entry keeps, and what a
   deferred node's first turn runs: one shared no-op, so a cancelled
   closure and whatever it captures are garbage at cancel time. *)
let blank () = ()

(* The one action of every node a poster pushes: it takes the payload
   at the entry the wheel just took, blanks both slots, then runs. *)
let take_post p () =
  let i = Wheel.taken p.engine.wheel in
  let blank = Array.length p.firsts - 1 in
  let a = p.firsts.(i) and b = p.seconds.(i) in
  p.firsts.(i) <- p.firsts.(blank);
  p.seconds.(i) <- p.seconds.(blank);
  p.run a b

let created = ref 0

let create () =
  incr created;
  let rec t =
    {
      id = !created;
      clock = { at = 0.0 };
      now = 0.0;
      executed = 0;
      running = false;
      wheel = Wheel.create ~blank;
      delays =
        {
          engine = t;
          run = Effect.Deep.continue;
          firsts = [||];
          seconds = [||];
          action = blank;
        };
      run_start_events = 0;
      run_start_cpu = 0.0;
      last_run_events = 0;
      last_run_cpu_s = 0.0;
    }
  in
  t.delays.action <- take_post t.delays;
  t

let id t = t.id
let clock t = t.clock

let now t =
  let at = t.clock.at in
  if at <> t.now then t.now <- at;
  t.now

let pending t = Wheel.length t.wheel
let executed t = t.executed
let cancelled_timers t = Wheel.cancelled t.wheel

(* The one push path, at the time in [due]. NaN compares false with
   every time and infinity has no tick, so either would run out of
   order and move the clock backwards. *)
let push t ~turns action =
  let time = due.at in
  if not (Float.is_finite time) then invalid_arg "Engine: non-finite time";
  if time < t.clock.at then
    raise (Time_went_backwards { now = t.clock.at; requested = time });
  Wheel.push t.wheel due ~turns action

let timer_due t action = push t ~turns:1 action
let schedule_due t action = ignore (push t ~turns:1 action : timer)

let timer_at t time action =
  due.at <- time;
  timer_due t action

let timer ?(delay = 0.0) t action =
  if delay < 0.0 then invalid_arg "Engine.timer: negative delay";
  due.at <- t.clock.at +. delay;
  timer_due t action

let cancel t handle = ignore (Wheel.cancel t.wheel handle : bool)

let schedule_at t time action =
  due.at <- time;
  schedule_due t action

let schedule ?(delay = 0.0) t action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  due.at <- t.clock.at +. delay;
  schedule_due t action

(* Two turns on one node: the first only re-queues it, under the seq a
   zero-delay push from an action would draw, and runs the blank. *)
let defer_at t time action =
  due.at <- time;
  ignore (push t ~turns:2 action : timer)

(* [a] at least [n] long, its new slots filled with [fill]. *)
let extend a n fill =
  let bigger = Array.make n fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let poster engine run =
  let p = { engine; run; firsts = [||]; seconds = [||]; action = blank } in
  p.action <- take_post p;
  p

let push_post p ~turns a b =
  let i = Wheel.entry (push p.engine ~turns p.action) in
  if i >= Array.length p.firsts - 1 then begin
    let n = max 64 (2 * (i + 1)) in
    p.firsts <- extend p.firsts n a;
    p.seconds <- extend p.seconds n b
  end;
  p.firsts.(i) <- a;
  p.seconds.(i) <- b

let post p a b = push_post p ~turns:1 a b

(* The two-turn node [defer_at] pushes, holding the delays' poster's
   action: the continuation waits at the node's entry until its last
   turn resumes it. *)
let park t k = push_post t.delays ~turns:2 k ()

(* The wheel raises the flat clock to the event's time: no event
   allocates here, whether it moves the clock or not. *)
let execute t =
  Wheel.advance t.wheel t.clock;
  t.executed <- t.executed + 1;
  incr global_executed_events;
  (Wheel.take t.wheel) ()

(* The wheel skips dead nodes (cancelled timers) and answers without
   allocating, so the dispatch loop below costs no words per
   event. *)
let step t =
  Wheel.settle t.wheel
  && begin
       execute t;
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
    &&
    match until with
    | None -> Wheel.settle t.wheel
    | Some limit -> Wheel.due_by t.wheel limit
  in
  let finally () =
    t.running <- false;
    t.last_run_events <- t.executed - t.run_start_events;
    t.last_run_cpu_s <- Sys.time () -. t.run_start_cpu
  in
  (try
     while continue () do
       decr budget;
       execute t
     done
   with e ->
     finally ();
     raise e);
  finally ();
  (* If we stopped on a time horizon, advance the clock to it so that a
     subsequent [run ~until:later] resumes from the horizon. *)
  match until with
  | Some limit when t.clock.at < limit && pending t > 0 -> ()
  | Some limit when t.clock.at < limit -> t.clock.at <- limit
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
