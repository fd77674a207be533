(* Tests for the discrete-event engine, processes, PRNG and stats. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Vsim.Heap.create ~compare:Int.compare in
  List.iter (Vsim.Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ]
    (Vsim.Heap.pop_all h)

let test_heap_empty () =
  let h = Vsim.Heap.create ~compare:Int.compare in
  Alcotest.(check bool) "empty" true (Vsim.Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Vsim.Heap.pop h);
  Alcotest.(check (option int)) "peek empty" None (Vsim.Heap.peek h)

let test_heap_peek_stable () =
  let h = Vsim.Heap.create ~compare:Int.compare in
  Vsim.Heap.push h 2;
  Vsim.Heap.push h 1;
  Alcotest.(check (option int)) "peek" (Some 1) (Vsim.Heap.peek h);
  Alcotest.(check int) "length unchanged" 2 (Vsim.Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Vsim.Heap.create ~compare:Int.compare in
      List.iter (Vsim.Heap.push h) xs;
      Vsim.Heap.pop_all h = List.sort Int.compare xs)

(* --- Engine --- *)

let test_engine_time_order () =
  let eng = Vsim.Engine.create () in
  let log = ref [] in
  Vsim.Engine.schedule ~delay:5.0 eng (fun () -> log := "b" :: !log);
  Vsim.Engine.schedule ~delay:1.0 eng (fun () -> log := "a" :: !log);
  Vsim.Engine.schedule ~delay:9.0 eng (fun () -> log := "c" :: !log);
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 9.0 (Vsim.Engine.now eng)

let test_engine_fifo_at_same_time () =
  let eng = Vsim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Vsim.Engine.schedule ~delay:1.0 eng (fun () -> log := i :: !log)
  done;
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "fifo ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let eng = Vsim.Engine.create () in
  let hits = ref 0 in
  Vsim.Engine.schedule eng (fun () ->
      Vsim.Engine.schedule ~delay:2.0 eng (fun () ->
          incr hits;
          Vsim.Engine.schedule ~delay:3.0 eng (fun () -> incr hits)));
  Vsim.Engine.run eng;
  Alcotest.(check int) "both nested events ran" 2 !hits;
  check_float "final time" 5.0 (Vsim.Engine.now eng)

let test_engine_until_horizon () =
  let eng = Vsim.Engine.create () in
  let hits = ref 0 in
  Vsim.Engine.schedule ~delay:1.0 eng (fun () -> incr hits);
  Vsim.Engine.schedule ~delay:10.0 eng (fun () -> incr hits);
  Vsim.Engine.run ~until:5.0 eng;
  Alcotest.(check int) "only first ran" 1 !hits;
  Alcotest.(check int) "one still pending" 1 (Vsim.Engine.pending eng);
  Vsim.Engine.run eng;
  Alcotest.(check int) "second ran on resume" 2 !hits

let test_engine_rejects_past () =
  let eng = Vsim.Engine.create () in
  Vsim.Engine.schedule ~delay:5.0 eng (fun () ->
      Alcotest.check_raises "no scheduling in the past"
        (Vsim.Engine.Time_went_backwards { now = 5.0; requested = 1.0 })
        (fun () -> Vsim.Engine.schedule_at eng 1.0 (fun () -> ())));
  Vsim.Engine.run eng

(* A NaN or infinite time is refused on every push path. Accepted, an
   infinite time ran before the 5 and 10 ms events with the clock at
   infinity, and the clock then went back to 5 ms; NaN did the same. *)
let test_engine_rejects_non_finite () =
  let eng = Vsim.Engine.create () in
  let ran = ref [] in
  let at ms = Vsim.Engine.schedule_at eng ms (fun () -> ran := ms :: !ran) in
  at 5.0;
  at 10.0;
  let refused = Invalid_argument "Engine: non-finite time" in
  List.iter
    (fun (what, push) -> Alcotest.check_raises what refused push)
    [
      ("schedule_at infinity", fun () -> at infinity);
      ("schedule_at nan", fun () -> at nan);
      ("schedule_at neg_infinity", fun () -> at neg_infinity);
      ( "schedule ~delay:nan",
        fun () -> Vsim.Engine.schedule ~delay:nan eng ignore );
      ( "timer ~delay:infinity",
        fun () -> ignore (Vsim.Engine.timer ~delay:infinity eng ignore) );
      ("defer_at infinity", fun () -> Vsim.Engine.defer_at eng infinity ignore);
    ];
  Vsim.Engine.run eng;
  Alcotest.(check (list (float 0.0))) "only the finite events ran, in order"
    [ 5.0; 10.0 ] (List.rev !ran);
  check_float "the clock stopped at the last of them" 10.0 (Vsim.Engine.now eng)

let test_engine_max_events () =
  let eng = Vsim.Engine.create () in
  let hits = ref 0 in
  for _ = 1 to 10 do
    Vsim.Engine.schedule eng (fun () -> incr hits)
  done;
  Vsim.Engine.run ~max_events:3 eng;
  Alcotest.(check int) "stopped after budget" 3 !hits

(* --- Timer wheel vs binary heap --- *)

(* The engine's wheel and the reference binary heap. *)
let wheel = (module Vsim.Engine : Heap_engine.S)
let heap = (module Heap_engine : Heap_engine.S)

(* [defer_at] runs its action one turn late, exactly where a timer whose
   action scheduled it with no delay would: [a] and the deferred event
   fall due at 5 ms, and the second turn queues behind [b] (pushed
   before the first turn) and [c] ([a]'s zero-delay push). *)
let test_engine_defer_at () =
  List.iter
    (fun (module Q : Heap_engine.S) ->
      let eng = Q.create () in
      let log = ref [] in
      let note tag () = log := tag :: !log in
      Q.schedule ~delay:5.0 eng (fun () ->
          note "a" ();
          Q.schedule eng (note "c"));
      Q.defer_at eng 5.0 (note "deferred");
      Q.schedule ~delay:5.0 eng (note "b");
      Q.run ~max_events:3 eng;
      Alcotest.(check int) "after a, the first turn and b: c and the second"
        2 (Q.pending eng);
      Q.run eng;
      Alcotest.(check (list string)) "second turn after every earlier push"
        [ "a"; "b"; "c"; "deferred" ] (List.rev !log);
      Alcotest.(check int) "both turns count as events" 5 (Q.executed eng))
    [ wheel; heap ]

(* Run one randomized schedule on a queue and return the execution
   log. The script is driven entirely by engine callbacks from one PRNG
   stream, so two queues produce the same log iff they execute events
   in the same (time, seq) order — ties, same-timestamp re-scheduling,
   in-event cancellation, deferred events (the engine's one node
   against the reference's timer-then-zero-delay pair) and
   overflow-range delays included.

   With [~slices], the run is cut into slices the way the benchmark's
   engine loop cuts it — random [~max_events] budgets, some bounded by
   a random [~until] — drawn from their own stream, and the log length
   and clock after every slice are returned too. *)
let exercise ?slices (module Q : Heap_engine.S) ~seed ~events =
  let eng = Q.create () in
  let prng = Vsim.Prng.create ~seed in
  let log = ref [] in
  let next_id = ref 0 in
  let timers = ref [] in
  let scheduled = ref 0 in
  let rec spawn_event () =
    if !scheduled < events then begin
      incr scheduled;
      let id = !next_id in
      incr next_id;
      let delay =
        match Vsim.Prng.int prng 6 with
        | 0 -> 0.0 (* same-timestamp re-scheduling *)
        | 1 -> Vsim.Prng.float prng *. 0.2 (* sub-tick *)
        | 2 -> float_of_int (Vsim.Prng.int prng 50) (* integer-valued: ties *)
        | 3 -> Vsim.Prng.float prng *. 1000.0
        | 4 -> Vsim.Prng.float prng *. 200_000.0
        | _ -> 6.0e6 +. (Vsim.Prng.float prng *. 8.0e6) (* top level + overflow *)
      in
      let action () =
        log := id :: !log;
        (match !timers with
        | [] -> ()
        | ts ->
            (* Cancel a random armed timer — possibly one that
               already fired, which must be a no-op. *)
            if Vsim.Prng.int prng 3 = 0 then begin
              let _, t = List.nth ts (Vsim.Prng.int prng (List.length ts)) in
              Q.cancel eng t
            end);
        for _ = 1 to Vsim.Prng.int prng 3 do
          spawn_event ()
        done
      in
      (* One event in four is deferred (a delay's wake-up): it has no
         handle, so it is never cancelled. *)
      if Vsim.Prng.int prng 4 = 0 then
        Q.defer_at eng (Q.now eng +. delay) action
      else begin
        timers := (id, Q.timer ~delay eng action) :: !timers;
        if List.length !timers > 40 then
          timers := List.filteri (fun i _ -> i < 40) !timers
      end
    end
  in
  for _ = 1 to 10 do
    spawn_event ()
  done;
  let after_slices =
    match slices with
    | None ->
        Q.run eng;
        []
    | Some slice_seed ->
        let sp = Vsim.Prng.create ~seed:slice_seed in
        let after = ref [] in
        while Q.pending eng > 0 do
          let max_events = 1 + Vsim.Prng.int sp 60 in
          (if Vsim.Prng.bool sp then
             let until = Q.now eng +. (Vsim.Prng.float sp *. 3000.0) in
             Q.run ~until ~max_events eng
           else Q.run ~max_events eng);
          after := (List.length !log, Q.now eng) :: !after
        done;
        List.rev !after
  in
  (List.rev !log, Q.executed eng, Q.cancelled_timers eng, after_slices)

let test_wheel_matches_heap_fixed () =
  let w = exercise wheel ~seed:1202 ~events:2000 in
  let h = exercise heap ~seed:1202 ~events:2000 in
  let log (l, _, _, _) = l and counts (_, e, c, _) = (e, c) in
  Alcotest.(check (list int)) "same execution order" (log h) (log w);
  Alcotest.(check (pair int int)) "same executed/cancelled counts" (counts h)
    (counts w)

let prop_wheel_matches_heap =
  QCheck.Test.make
    ~name:"wheel and heap backends execute identical orders" ~count:40
    QCheck.small_int
    (fun seed ->
      exercise wheel ~seed ~events:400 = exercise heap ~seed ~events:400)

(* Slicing changes no event's order: both queues agree after every
   slice, and the sliced log is the unsliced one. *)
let prop_slices_match =
  QCheck.Test.make
    ~name:"sliced runs agree across backends and with an unsliced run"
    ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, slices) ->
      let ((log, _, _, _) as w) = exercise ~slices wheel ~seed ~events:400 in
      let unsliced, _, _, _ = exercise wheel ~seed ~events:400 in
      w = exercise ~slices heap ~seed ~events:400 && log = unsliced)

let test_timer_cancel_before_fire () =
  let eng = Vsim.Engine.create () in
  let fired = ref false in
  let h = Vsim.Engine.timer ~delay:10.0 eng (fun () -> fired := true) in
  Vsim.Engine.schedule ~delay:5.0 eng (fun () -> Vsim.Engine.cancel eng h);
  Vsim.Engine.run eng;
  Alcotest.(check bool) "cancelled action never ran" false !fired;
  Alcotest.(check int) "counted as cancelled" 1
    (Vsim.Engine.cancelled_timers eng);
  Alcotest.(check int) "nothing pending" 0 (Vsim.Engine.pending eng);
  check_float "clock stopped at the cancel" 5.0 (Vsim.Engine.now eng)

let test_timer_cancel_after_fire () =
  let eng = Vsim.Engine.create () in
  let fired = ref 0 in
  let h = Vsim.Engine.timer ~delay:1.0 eng (fun () -> incr fired) in
  Vsim.Engine.schedule ~delay:5.0 eng (fun () -> Vsim.Engine.cancel eng h);
  Vsim.Engine.run eng;
  Alcotest.(check int) "fired exactly once" 1 !fired;
  Alcotest.(check int) "fired timer is not a cancellation" 0
    (Vsim.Engine.cancelled_timers eng)

let test_timer_cancel_same_timestamp () =
  let eng = Vsim.Engine.create () in
  let fired = ref [] in
  (* Three events at t=10: the first cancels the third (still pending:
     must not run) and the second (about to be... no — scheduled after
     it, still pending: must not run either). Scheduling order is
     execution order at equal times. *)
  let h2 = ref None and h3 = ref None in
  Vsim.Engine.schedule ~delay:10.0 eng (fun () ->
      fired := 1 :: !fired;
      Option.iter (Vsim.Engine.cancel eng) !h3);
  h2 := Some (Vsim.Engine.timer ~delay:10.0 eng (fun () -> fired := 2 :: !fired));
  h3 := Some (Vsim.Engine.timer ~delay:10.0 eng (fun () -> fired := 3 :: !fired));
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "cancelled same-time event skipped" [ 1; 2 ]
    (List.rev !fired);
  (* And cancelling an already-fired same-timestamp event is a no-op. *)
  let eng = Vsim.Engine.create () in
  let fired = ref [] in
  let h1 = Vsim.Engine.timer ~delay:10.0 eng (fun () -> fired := 1 :: !fired) in
  Vsim.Engine.schedule ~delay:10.0 eng (fun () ->
      fired := 2 :: !fired;
      Vsim.Engine.cancel eng h1);
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "fired event unaffected" [ 1; 2 ]
    (List.rev !fired);
  Alcotest.(check int) "no-op cancel not counted" 0
    (Vsim.Engine.cancelled_timers eng)

(* A cancel lets go of the action at once: what it captured is garbage
   while the dead nodes still wait in the queue, on either queue, even
   with the handles kept, as a pending transaction keeps its timers. *)
let test_timer_cancel_frees_action () =
  List.iter
    (fun (module Q : Heap_engine.S) ->
      let eng = Q.create () in
      let collected = ref 0 in
      let arm () =
        let block = Bytes.make 4096 'x' in
        Gc.finalise (fun _ -> incr collected) block;
        Q.timer ~delay:500.0 eng (fun () -> Bytes.set block 0 'y')
      in
      let timers = List.init 10 (fun _ -> arm ()) in
      List.iter (Q.cancel eng) timers;
      Gc.full_major ();
      Alcotest.(check int) "every captured block collected" 10 !collected;
      Alcotest.(check int) "ten cancelled, the queue not yet run" 10
        (Q.cancelled_timers eng);
      ignore (Sys.opaque_identity timers);
      Q.run eng;
      Alcotest.(check int) "no cancelled action ran" 0 (Q.executed eng))
    [ wheel; heap ];
  (* The engine lets go of a timer's action when it fires, too, though
     its handle is kept. The reference keeps a fired action for as long
     as its node is reachable, which the oracle may. *)
  let eng = Vsim.Engine.create () in
  let collected = ref 0 in
  let timers =
    List.init 10 (fun _ ->
        let block = Bytes.make 4096 'x' in
        Gc.finalise (fun _ -> incr collected) block;
        Vsim.Engine.timer ~delay:1.0 eng (fun () -> Bytes.set block 0 'y'))
  in
  Vsim.Engine.run eng;
  Gc.full_major ();
  Alcotest.(check int) "every fired action's block collected" 10 !collected;
  (* Read the engine after the collection: were it garbage, its queue
     would be too, and the check above would prove nothing. *)
  Alcotest.(check int) "with the engine still live" 10
    (Vsim.Engine.executed eng);
  ignore (Sys.opaque_identity timers)

(* A handle outlives its timer. Once the timer has fired, or been
   cancelled and dropped, its queue entry serves later timers, and the
   old handle must not reach them. The kernel cancels a transaction's
   timer whenever its reply lands, which can be from inside that very
   timer's action ([fill_pending] through [cancel_timer]). *)
let test_stale_handle_own_action () =
  let eng = Vsim.Engine.create () in
  let fired = ref 0 in
  let self = ref None in
  let firing =
    Vsim.Engine.timer ~delay:1.0 eng (fun () ->
        for _ = 1 to 4 do
          ignore (Vsim.Engine.timer ~delay:1.0 eng (fun () -> incr fired))
        done;
        Option.iter (Vsim.Engine.cancel eng) !self)
  in
  self := Some firing;
  Vsim.Engine.run eng;
  Alcotest.(check int) "every timer the action armed fired" 4 !fired;
  Alcotest.(check int) "cancelling the firing timer counts nothing" 0
    (Vsim.Engine.cancelled_timers eng)

let test_stale_handle_after_drop () =
  let eng = Vsim.Engine.create () in
  let fired = ref 0 in
  let dead = Vsim.Engine.timer ~delay:1.0 eng (fun () -> incr fired) in
  Vsim.Engine.cancel eng dead;
  (* The cursor drops [dead] on its way to this event. *)
  Vsim.Engine.schedule ~delay:2.0 eng (fun () ->
      for _ = 1 to 4 do
        ignore (Vsim.Engine.timer ~delay:1.0 eng (fun () -> incr fired))
      done;
      Vsim.Engine.cancel eng dead);
  Vsim.Engine.run eng;
  Alcotest.(check int) "every later timer fired" 4 !fired;
  Alcotest.(check int) "only the first cancel counted" 1
    (Vsim.Engine.cancelled_timers eng)

(* [Engine.no_timer] names no timer: cancelling it, on an engine that
   has never queued anything or on a busy one, does nothing. *)
let test_no_timer () =
  let eng = Vsim.Engine.create () in
  Vsim.Engine.cancel eng Vsim.Engine.no_timer;
  let fired = ref 0 in
  ignore (Vsim.Engine.timer ~delay:1.0 eng (fun () -> incr fired));
  Vsim.Engine.cancel eng Vsim.Engine.no_timer;
  Vsim.Engine.run eng;
  Alcotest.(check int) "the live timer fired" 1 !fired;
  Alcotest.(check int) "nothing cancelled" 0 (Vsim.Engine.cancelled_timers eng)

let test_wheel_overflow_order () =
  (* Spans every wheel level and the overflow list (ticks are 0.25 ms:
     level 4's span ends at 2^25 ticks = 8 388 608 ms). *)
  let eng = Vsim.Engine.create () in
  let log = ref [] in
  let at t tag = Vsim.Engine.schedule_at eng t (fun () -> log := tag :: !log) in
  at 1.2e7 "ovf2";
  at 0.1 "now";
  at 9.0e6 "ovf1";
  at 1.0e6 "l4";
  at 30_000.0 "l3";
  at 900.0 "l2";
  at 30.0 "l1";
  at 2.0 "l0";
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "all levels in time order"
    [ "now"; "l0"; "l1"; "l2"; "l3"; "l4"; "ovf1"; "ovf2" ]
    (List.rev !log)

(* --- Proc --- *)

let test_proc_delay () =
  let eng = Vsim.Engine.create () in
  let finished_at = ref nan in
  Vsim.Proc.spawn eng (fun () ->
      Vsim.Proc.delay eng 3.0;
      Vsim.Proc.delay eng 4.0;
      finished_at := Vsim.Engine.now eng);
  Vsim.Engine.run eng;
  check_float "delays accumulate" 7.0 !finished_at

(* One randomized script of actors that each take steps with a pause
   between: a step logs itself, may cancel an armed timer (possibly one
   that already fired), may arm a timer, may start another actor, and
   then draws its pause, which may be zero, sub-tick, a tie on an
   integer instant or in the overflow range. Every draw comes from one
   PRNG stream in the order events run, so two queues log the same
   script iff they run events in the same (time, seq) order. [drive]
   is how an actor pauses: a fiber's [Proc.delay] on the engine, whose
   continuation waits on the queue, or a chain of [defer_at] closures
   on the reference queue. More actors than 64 pause at once, so the
   engine's store of waiting continuations grows past its first
   size. *)
let pause_script (type e) (module Q : Heap_engine.S with type t = e)
    ~(drive : e -> (unit -> float option) -> unit) ~seed =
  let eng = Q.create () in
  let prng = Vsim.Prng.create ~seed in
  let log = ref [] and timers = ref [] in
  let actors = ref 0 and budget = ref 1500 and fired = ref 0 in
  let pause () =
    match Vsim.Prng.int prng 5 with
    | 0 -> 0.0
    | 1 -> Vsim.Prng.float prng *. 0.2
    | 2 -> float_of_int (Vsim.Prng.int prng 20)
    | 3 -> Vsim.Prng.float prng *. 500.0
    | _ -> 6.0e6 +. (Vsim.Prng.float prng *. 8.0e6)
  in
  let rec start () =
    incr actors;
    let id = !actors and steps = ref 0 in
    drive eng (fun () ->
        incr steps;
        decr budget;
        log := (id, !steps) :: !log;
        (match !timers with
        | ts when ts <> [] && Vsim.Prng.int prng 3 = 0 ->
            Q.cancel eng (List.nth ts (Vsim.Prng.int prng (List.length ts)))
        | _ -> ());
        if Vsim.Prng.bool prng then begin
          let tag = !fired in
          incr fired;
          let timer =
            Q.timer ~delay:(pause ()) eng (fun () -> log := (0, tag) :: !log)
          in
          timers := List.filteri (fun i _ -> i < 40) (timer :: !timers)
        end;
        if !actors < 150 && Vsim.Prng.int prng 3 = 0 then start ();
        if !budget > 0 && Vsim.Prng.int prng 12 > 0 then Some (pause ())
        else None)
  in
  for _ = 1 to 80 do
    start ()
  done;
  Q.run eng;
  (List.rev !log, Q.executed eng, Q.cancelled_timers eng)

let fiber_pauses eng step =
  Vsim.Proc.spawn eng (fun () ->
      let rec go () =
        match step () with
        | Some ms ->
            Vsim.Proc.delay eng ms;
            go ()
        | None -> ()
      in
      go ())

let deferred_pauses eng step =
  Heap_engine.schedule eng (fun () ->
      let rec go () =
        match step () with
        | Some ms -> Heap_engine.defer_at eng (Heap_engine.now eng +. ms) go
        | None -> ()
      in
      go ())

let prop_delays_match_deferred =
  QCheck.Test.make
    ~name:"parked delays run as the reference queue's deferred closures"
    ~count:40 QCheck.small_int (fun seed ->
      pause_script (module Vsim.Engine) ~drive:fiber_pauses ~seed
      = pause_script (module Heap_engine) ~drive:deferred_pauses ~seed)

(* A delay refuses a negative or non-finite duration and an engine
   other than its fiber's, raising in the fiber; the fiber goes on. *)
let test_proc_delay_rejects () =
  let eng = Vsim.Engine.create () and other = Vsim.Engine.create () in
  let refused = ref [] in
  Vsim.Proc.spawn eng (fun () ->
      List.iter
        (fun (what, engine, ms) ->
          match Vsim.Proc.delay engine ms with
          | () -> ()
          | exception Invalid_argument _ -> refused := what :: !refused)
        [
          ("negative", eng, -1.0);
          ("nan", eng, nan);
          ("infinite", eng, infinity);
          ("another engine", other, 1.0);
        ];
      Vsim.Proc.delay eng 2.0);
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "every bad delay refused"
    [ "negative"; "nan"; "infinite"; "another engine" ]
    (List.rev !refused);
  check_float "the fiber's own delay still wakes it" 2.0 (Vsim.Engine.now eng);
  Alcotest.(check int) "nothing queued on the other engine" 0
    (Vsim.Engine.pending other)

let test_proc_interleaving () =
  let eng = Vsim.Engine.create () in
  let log = ref [] in
  let emit tag = log := tag :: !log in
  Vsim.Proc.spawn eng (fun () ->
      emit "a1";
      Vsim.Proc.delay eng 2.0;
      emit "a2");
  Vsim.Proc.spawn eng (fun () ->
      emit "b1";
      Vsim.Proc.delay eng 1.0;
      emit "b2");
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "interleaved by time" [ "a1"; "b1"; "b2"; "a2" ]
    (List.rev !log)

(* A blocked fiber's continuation wakes in one event at the waker's
   instant, with a value or an exception. *)
let test_proc_block_wake () =
  let eng = Vsim.Engine.create () in
  let parked = ref None and log = ref [] in
  Vsim.Proc.spawn eng (fun () ->
      let v = Vsim.Proc.block (fun k -> parked := Some k) in
      log := Fmt.str "%d at %.1f" v (Vsim.Engine.now eng) :: !log;
      match Vsim.Proc.block (fun k -> parked := Some k) with
      | (_ : int) -> log := "value" :: !log
      | exception Failure e ->
          log := Fmt.str "%s at %.1f" e (Vsim.Engine.now eng) :: !log);
  let wake f =
    match !parked with
    | Some k ->
        parked := None;
        f k
    | None -> Alcotest.fail "no fiber parked"
  in
  Vsim.Engine.schedule ~delay:2.0 eng (fun () ->
      wake (fun k -> Vsim.Proc.wake eng k 7));
  Vsim.Engine.schedule ~delay:3.0 eng (fun () ->
      wake (fun k -> Vsim.Proc.wake_exn eng k (Failure "boom")));
  let before = Vsim.Engine.executed eng in
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "woken with a value, then an exception"
    [ "7 at 2.0"; "boom at 3.0" ] (List.rev !log);
  (* The start, two wakers and one event per wake. *)
  Alcotest.(check int) "one event per wake" 5
    (Vsim.Engine.executed eng - before)

(* Waking one continuation twice fails the run with OCaml's own
   error, raised out of the engine loop by the second wake's event. *)
let test_proc_double_wake () =
  let eng = Vsim.Engine.create () in
  Vsim.Proc.spawn eng (fun () ->
      Vsim.Proc.block (fun k ->
          Vsim.Proc.wake eng k ();
          Vsim.Proc.wake eng k ()));
  Alcotest.check_raises "the second wake fails the run"
    Effect.Continuation_already_resumed (fun () -> Vsim.Engine.run eng)

(* One blocker, built once, serves every await of its fiber: each wake
   resumes the await it answers, with its own value or exception, at
   its own instant. *)
let test_proc_blocker_reuse () =
  let eng = Vsim.Engine.create () in
  let parked = ref None and log = ref [] in
  let blocker = Vsim.Proc.blocker (fun k -> parked := Some k) in
  Vsim.Proc.spawn eng (fun () ->
      for _ = 1 to 5 do
        let v =
          match Vsim.Proc.await blocker with
          | v -> v
          | exception Failure _ -> -1
        in
        log := Fmt.str "%d at %.1f" v (Vsim.Engine.now eng) :: !log
      done);
  for i = 1 to 5 do
    Vsim.Engine.schedule_at eng (float_of_int i) (fun () ->
        match !parked with
        | Some k ->
            parked := None;
            if i = 3 then Vsim.Proc.wake_exn eng k (Failure "three")
            else Vsim.Proc.wake eng k (10 * i)
        | None -> Alcotest.failf "no await parked at %d ms" i)
  done;
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "each wake resumes its own await"
    [ "10 at 1.0"; "20 at 2.0"; "-1 at 3.0"; "40 at 4.0"; "50 at 5.0" ]
    (List.rev !log);
  Alcotest.(check bool) "nothing left parked" true (!parked = None)

(* A continuation from an earlier await of a blocker is spent: waking it
   again fails the run, though the fiber awaits the same blocker
   anew. *)
let test_proc_blocker_stale_wake () =
  let eng = Vsim.Engine.create () in
  let first = ref None and parked = ref None in
  let blocker =
    Vsim.Proc.blocker (fun k ->
        if !first = None then first := Some k;
        parked := Some k)
  in
  Vsim.Proc.spawn eng (fun () ->
      ignore (Vsim.Proc.await blocker : int);
      ignore (Vsim.Proc.await blocker : int));
  Vsim.Engine.schedule_at eng 1.0 (fun () ->
      Vsim.Proc.wake eng (Option.get !parked) 1);
  Vsim.Engine.schedule_at eng 2.0 (fun () ->
      Vsim.Proc.wake eng (Option.get !first) 2);
  Alcotest.check_raises "the second wake of the first await fails the run"
    Effect.Continuation_already_resumed (fun () -> Vsim.Engine.run eng);
  Alcotest.(check bool) "the second await parked anew" true
    (match (!parked, !first) with
    | Some second, Some first -> second != first
    | _ -> false)

let test_ivar_rendezvous () =
  let eng = Vsim.Engine.create () in
  let iv = Vsim.Proc.Ivar.create () in
  let got = ref 0 in
  Vsim.Proc.spawn eng (fun () -> got := Vsim.Proc.Ivar.read iv);
  Vsim.Proc.spawn eng (fun () ->
      Vsim.Proc.delay eng 5.0;
      Vsim.Proc.Ivar.fill iv (Ok 42));
  Vsim.Engine.run eng;
  Alcotest.(check int) "value crossed" 42 !got

let test_ivar_prefilled () =
  let eng = Vsim.Engine.create () in
  let iv = Vsim.Proc.Ivar.create () in
  Vsim.Proc.Ivar.fill iv (Ok 7);
  let got = ref 0 in
  Vsim.Proc.spawn eng (fun () -> got := Vsim.Proc.Ivar.read iv);
  Vsim.Engine.run eng;
  Alcotest.(check int) "prefilled read" 7 !got

let test_ivar_error () =
  let eng = Vsim.Engine.create () in
  let iv = Vsim.Proc.Ivar.create () in
  let caught = ref false in
  Vsim.Proc.spawn eng (fun () ->
      match Vsim.Proc.Ivar.read iv with
      | (_ : int) -> ()
      | exception Failure _ -> caught := true);
  Vsim.Proc.spawn eng (fun () -> Vsim.Proc.Ivar.fill iv (Error (Failure "boom")));
  Vsim.Engine.run eng;
  Alcotest.(check bool) "error propagated" true !caught

let test_mailbox_fifo () =
  let eng = Vsim.Engine.create () in
  let mb = Vsim.Proc.Mailbox.create () in
  let got = ref [] in
  Vsim.Proc.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Vsim.Proc.Mailbox.receive mb :: !got
      done);
  Vsim.Proc.spawn eng (fun () ->
      Vsim.Proc.Mailbox.send mb 1;
      Vsim.Proc.delay eng 1.0;
      Vsim.Proc.Mailbox.send mb 2;
      Vsim.Proc.Mailbox.send mb 3);
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_abort () =
  let eng = Vsim.Engine.create () in
  let mb : int Vsim.Proc.Mailbox.t = Vsim.Proc.Mailbox.create () in
  let outcome = ref "" in
  Vsim.Proc.spawn eng (fun () ->
      match Vsim.Proc.Mailbox.receive mb with
      | (_ : int) -> outcome := "value"
      | exception Vsim.Proc.Killed _ -> outcome := "killed");
  Vsim.Proc.spawn eng (fun () ->
      Vsim.Proc.delay eng 1.0;
      Vsim.Proc.Mailbox.abort_waiters mb (Vsim.Proc.Killed "test"));
  Vsim.Engine.run eng;
  Alcotest.(check string) "receiver aborted" "killed" !outcome

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Vsim.Prng.create ~seed:7 and b = Vsim.Prng.create ~seed:7 in
  let da = List.init 100 (fun _ -> Vsim.Prng.bits a) in
  let db = List.init 100 (fun _ -> Vsim.Prng.bits b) in
  Alcotest.(check (list int)) "same seed, same stream" da db

let test_prng_split_independent () =
  let a = Vsim.Prng.create ~seed:7 in
  let child = Vsim.Prng.split a in
  let da = List.init 50 (fun _ -> Vsim.Prng.bits a) in
  let dc = List.init 50 (fun _ -> Vsim.Prng.bits child) in
  Alcotest.(check bool) "streams differ" true (da <> dc)

(* The published SplitMix64 outputs for seed 1234567 (Steele, Lea &
   Flood, OOPSLA 2014), shifted right by 2 as [bits] returns them; and
   the first draw of each kind, then a split child's first [bits], for
   the benchmark's two seeds. Any change to the state's storage must
   leave every stream as it is. *)
let test_prng_golden () =
  let p = Vsim.Prng.create ~seed:1234567 in
  Alcotest.(check (list int))
    "SplitMix64 of 1234567"
    [ 1614456929277591329; 800792052799701993; 2454372983049592605 ]
    (List.init 3 (fun _ -> Vsim.Prng.bits p));
  let draws seed =
    let p = Vsim.Prng.create ~seed in
    let f = Vsim.Prng.float p in
    let i = Vsim.Prng.int p 1000 in
    let b = Vsim.Prng.bool p in
    let e = Vsim.Prng.exponential p ~mean:1.0 in
    (f, i, b, e, Vsim.Prng.bits (Vsim.Prng.split p))
  in
  List.iter
    (fun (seed, (f, i, b, e, child)) ->
      let f', i', b', e', child' = draws seed in
      let what = Fmt.str "seed %d: %s" seed in
      Alcotest.(check (float 0.0)) (what "float") f f';
      Alcotest.(check int) (what "int 1000") i i';
      Alcotest.(check bool) (what "bool") b b';
      Alcotest.(check (float 0.0)) (what "exponential") e e';
      Alcotest.(check int) (what "split child's bits") child child')
    [
      (1, (0x1.22145bd91204bp-1, 129, false, 0x1.2cde4482c75d4p-1,
           3564794228919577641));
      (7919, (0x1.0db5ae128cc5p-2, 258, true, 0x1.ddc40041dd13dp+0,
              4431410394201599109));
    ]

let prop_prng_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Vsim.Prng.create ~seed in
      let x = Vsim.Prng.int p bound in
      x >= 0 && x < bound)

let prop_prng_float_in_bounds =
  QCheck.Test.make ~name:"Prng.float stays in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let p = Vsim.Prng.create ~seed in
      let x = Vsim.Prng.float p in
      x >= 0.0 && x < 1.0)

(* --- Stats --- *)

let test_series_summary () =
  let s = Vsim.Stats.Series.create "t" in
  List.iter (Vsim.Stats.Series.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Vsim.Stats.Series.mean s);
  check_float "min" 1.0 (Vsim.Stats.Series.min_ s);
  check_float "max" 4.0 (Vsim.Stats.Series.max_ s);
  check_float "median" 2.5 (Vsim.Stats.Series.median s);
  check_float "sum" 10.0 (Vsim.Stats.Series.sum s)

let test_series_quantiles () =
  let s = Vsim.Stats.Series.create "t" in
  for i = 1 to 100 do
    Vsim.Stats.Series.add s (float_of_int i)
  done;
  check_float "p0" 1.0 (Vsim.Stats.Series.quantile s 0.0);
  check_float "p100" 100.0 (Vsim.Stats.Series.quantile s 1.0);
  Alcotest.(check bool) "p95 near 95" true
    (abs_float (Vsim.Stats.Series.quantile s 0.95 -. 95.0) < 1.0)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Vsim.Stats.Series.create "q" in
      List.iter (Vsim.Stats.Series.add s) xs;
      let q25 = Vsim.Stats.Series.quantile s 0.25 in
      let q50 = Vsim.Stats.Series.quantile s 0.5 in
      let q75 = Vsim.Stats.Series.quantile s 0.75 in
      q25 <= q50 && q50 <= q75)

let test_histogram () =
  let s = Vsim.Stats.Series.create "h" in
  List.iter (Vsim.Stats.Series.add s) [ 0.0; 1.0; 1.5; 2.0; 9.0; 10.0 ];
  let rows = Vsim.Stats.Series.histogram ~buckets:5 s in
  Alcotest.(check int) "bucket count" 5 (List.length rows);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 rows in
  Alcotest.(check int) "all samples bucketed" 6 total;
  let lo, _, first_count = List.hd rows in
  Alcotest.(check (float 1e-9)) "first bucket starts at min" 0.0 lo;
  Alcotest.(check int) "low cluster" 3 first_count

let test_histogram_single_value () =
  let s = Vsim.Stats.Series.create "h" in
  Vsim.Stats.Series.add s 5.0;
  Vsim.Stats.Series.add s 5.0;
  let rows = Vsim.Stats.Series.histogram ~buckets:3 s in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 rows in
  Alcotest.(check int) "degenerate range bucketed" 2 total

let test_counter () =
  let c = Vsim.Stats.Counter.create "c" in
  Vsim.Stats.Counter.incr c;
  Vsim.Stats.Counter.incr ~by:4 c;
  Alcotest.(check int) "count" 5 (Vsim.Stats.Counter.value c);
  Vsim.Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Vsim.Stats.Counter.value c)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "peek" `Quick test_heap_peek_stable;
        qcheck prop_heap_sorts;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_time_order;
        Alcotest.test_case "fifo ties" `Quick test_engine_fifo_at_same_time;
        Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "until horizon" `Quick test_engine_until_horizon;
        Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        Alcotest.test_case "rejects non-finite times" `Quick
          test_engine_rejects_non_finite;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
      ] );
    ( "sim.wheel",
      [
        Alcotest.test_case "defer_at takes two turns" `Quick
          test_engine_defer_at;
        Alcotest.test_case "matches heap (fixed seed)" `Quick
          test_wheel_matches_heap_fixed;
        Alcotest.test_case "cancel before fire" `Quick
          test_timer_cancel_before_fire;
        Alcotest.test_case "cancel after fire" `Quick
          test_timer_cancel_after_fire;
        Alcotest.test_case "cancel at same timestamp" `Quick
          test_timer_cancel_same_timestamp;
        Alcotest.test_case "cancel frees the action" `Quick
          test_timer_cancel_frees_action;
        Alcotest.test_case "stale handle from its own action" `Quick
          test_stale_handle_own_action;
        Alcotest.test_case "stale handle after its drop" `Quick
          test_stale_handle_after_drop;
        Alcotest.test_case "overflow ordering" `Quick test_wheel_overflow_order;
        Alcotest.test_case "no_timer names nothing" `Quick test_no_timer;
        qcheck prop_wheel_matches_heap;
        qcheck prop_slices_match;
      ] );
    ( "sim.proc",
      [
        Alcotest.test_case "delay" `Quick test_proc_delay;
        Alcotest.test_case "delay refusals" `Quick test_proc_delay_rejects;
        qcheck prop_delays_match_deferred;
        Alcotest.test_case "interleaving" `Quick test_proc_interleaving;
        Alcotest.test_case "block and wake" `Quick test_proc_block_wake;
        Alcotest.test_case "double wake fails the run" `Quick
          test_proc_double_wake;
        Alcotest.test_case "one blocker, many awaits" `Quick
          test_proc_blocker_reuse;
        Alcotest.test_case "a blocker's spent continuation" `Quick
          test_proc_blocker_stale_wake;
        Alcotest.test_case "ivar rendezvous" `Quick test_ivar_rendezvous;
        Alcotest.test_case "ivar prefilled" `Quick test_ivar_prefilled;
        Alcotest.test_case "ivar error" `Quick test_ivar_error;
        Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
        Alcotest.test_case "mailbox abort" `Quick test_mailbox_abort;
      ] );
    ( "sim.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "golden streams" `Quick test_prng_golden;
        qcheck prop_prng_int_in_bounds;
        qcheck prop_prng_float_in_bounds;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "summary" `Quick test_series_summary;
        Alcotest.test_case "quantiles" `Quick test_series_quantiles;
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "histogram degenerate" `Quick test_histogram_single_value;
        qcheck prop_quantile_monotone;
      ] );
  ]
