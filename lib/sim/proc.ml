(* Cooperative simulated processes built on OCaml effects.

   Each process is a fiber whose blocking operations perform an effect.
   A blocking call performs [Block], which carries its register
   function already in the option the handler returns, so the handler
   hands it over as it is: the runtime calls it with the fiber's
   continuation, which the caller keeps wherever its wake will look.
   [delay] performs [Delay], whose handler parks the continuation on
   the engine's queue ({!Engine.park}). A wake resumes the continuation
   through the event queue (rather than directly), which keeps
   simulated time consistent and event ordering deterministic, and
   bounds stack depth. *)

type 'a waiting = ('a, unit) Effect.Deep.continuation

type _ Effect.t +=
  | Block : ('a waiting -> unit) option -> 'a Effect.t
  | Delay : unit Effect.t

(* A [Block] built once, for a call that blocks the same way each
   time: performing it allocates nothing. *)
type 'a blocker = 'a Effect.t

(* What [delay] asks of its fiber's handler: the id of the engine it
   read its wake time from, which it wrote into the engine's time cell
   ({!Engine.due}). The handler reads both before anything else runs,
   so one cell serves every fiber. Passing them there rather than in
   the effect value saves the effect's block: [Delay] is a constant,
   the cell stores its float flat, and the engine goes by its id, so
   no store writes a pointer or keeps an engine alive. *)
let due_engine = ref (-1)

(* The engine of the fiber whose [Block] is being handled, set by its
   handler just before the register function runs. Only [suspend]
   reads it: Ivar and Mailbox are made without an engine. *)
let blocking : Engine.t option ref = ref None

exception Killed of string

(* A fiber that dies with an uncaught exception: print it and re-raise
   out of the engine loop, so the run fails loudly. [Killed] is the
   normal end of a torn-down process. *)
let on_uncaught ~name = function
  | Killed _ -> ()
  | e ->
      Fmt.epr "vsim: process %S died: %s@." name (Printexc.to_string e);
      raise e

let spawn ?(name = "proc") engine body =
  (* A delay nothing else can resume needs no resumer: its continuation
     waits on one queue node, which wakes the fiber in the two turns
     (timer, then zero-delay resume) a [wake] at the wake time would
     take. Built once per fiber, as is [self]. *)
  let id = Engine.id engine in
  let self = Some engine in
  let delayed = Some (Engine.park engine) in
  let handler (type a) (eff : a Effect.t) :
      ((a, unit) Effect.Deep.continuation -> unit) option =
    match eff with
    | Block register ->
        blocking := self;
        register
    | Delay when !due_engine = id -> delayed
    | Delay ->
        Some
          (fun k ->
            Effect.Deep.discontinue k
              (Invalid_argument "Proc.delay: not the fiber's engine"))
    | _ -> None
  in
  Engine.schedule engine (fun () ->
      Effect.Deep.match_with body ()
        {
          retc = (fun () -> ());
          exnc = (fun e -> on_uncaught ~name e);
          effc = handler;
        })

let blocker register = Block (Some register)
let await blocker = Effect.perform blocker
let block register = await (blocker register)

(* One event at the current instant, as [Engine.schedule] would push
   it. The clock's own box is the time, so none is made. *)
let wake engine k v =
  Engine.schedule_at engine (Engine.now engine) (fun () ->
      Effect.Deep.continue k v)

let wake_exn engine k e =
  Engine.schedule_at engine (Engine.now engine) (fun () ->
      Effect.Deep.discontinue k e)

let delay engine duration =
  if not (Float.is_finite duration && duration >= 0.0) then
    invalid_arg "Proc.delay: negative or non-finite duration";
  due_engine := Engine.id engine;
  Engine.due.at <- Engine.now engine +. duration;
  Effect.perform Delay

let yield engine = delay engine 0.0

(* A blocked fiber's wake as a value, on the engine its handler named:
   what Ivar and Mailbox keep for a blocked reader. *)
type 'a resumer = ('a, exn) result -> unit

let suspend register =
  block (fun k ->
      let engine = Option.get !blocking in
      register (function
        | Ok v -> wake engine k v
        | Error e -> wake_exn engine k e))

(* A single-use synchronization cell: one waiter, one fulfiller. *)
module Ivar = struct
  type 'a state =
    | Empty
    | Waiting of 'a resumer
    | Full of ('a, exn) result

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty }

  let fill t result =
    match t.state with
    | Empty -> t.state <- Full result
    | Waiting resume ->
        t.state <- Full result;
        resume result
    | Full _ -> invalid_arg "Ivar.fill: already filled"

  (* Block the current fiber until the ivar is filled. *)
  let read t =
    match t.state with
    | Full (Ok v) -> v
    | Full (Error e) -> raise e
    | Waiting _ -> invalid_arg "Ivar.read: already has a waiter"
    | Empty -> suspend (fun resume -> t.state <- Waiting resume)
end

(* An unbounded FIFO mailbox with blocking receive. *)
module Mailbox = struct
  type 'a t = {
    items : 'a Queue.t;
    waiters : 'a resumer Queue.t;
  }

  let create () = { items = Queue.create (); waiters = Queue.create () }

  let send t x =
    if Queue.is_empty t.waiters then Queue.add x t.items
    else Queue.take t.waiters (Ok x)

  let receive t =
    if Queue.is_empty t.items then
      suspend (fun resume -> Queue.add resume t.waiters)
    else Queue.take t.items

  let length t = Queue.length t.items

  (* Fail every blocked receiver; used when a host crashes. *)
  let abort_waiters t exn =
    let rec loop () =
      match Queue.take_opt t.waiters with
      | None -> ()
      | Some resume ->
          resume (Error exn);
          loop ()
    in
    loop ()
end
