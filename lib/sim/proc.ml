(* Cooperative simulated processes built on OCaml effects.

   Each process is a fiber whose blocking operations ([delay], [suspend])
   perform an effect; the handler installed by [spawn] captures the
   continuation and arranges for it to be resumed through the event
   queue. Resuming through the queue (rather than calling the
   continuation directly) keeps simulated time consistent and event
   ordering deterministic, and bounds stack depth. *)

type 'a resumer = ('a, exn) result -> unit

type _ Effect.t +=
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Delay : Engine.t * float -> unit Effect.t

exception Killed of string

(* Diagnostics for a fiber that dies with an uncaught exception. By
   default we re-raise out of the engine loop so tests fail loudly; a
   scenario can install a softer handler. *)
let on_uncaught : (name:string -> exn -> unit) ref =
  ref (fun ~name e ->
      match e with
      | Killed _ -> () (* normal termination of a killed process *)
      | e ->
          Fmt.epr "vsim: process %S died: %s@." name (Printexc.to_string e);
          raise e)

let spawn ?(name = "proc") engine body =
  let handler (type a) (eff : a Effect.t) :
      ((a, unit) Effect.Deep.continuation -> unit) option =
    match eff with
    | Suspend register ->
        Some
          (fun k ->
            let resumed = ref false in
            let resume result =
              if !resumed then invalid_arg "Proc: continuation resumed twice";
              resumed := true;
              Engine.schedule engine (fun () ->
                  match result with
                  | Ok v -> Effect.Deep.continue k v
                  | Error e -> Effect.Deep.discontinue k e)
            in
            register resume)
    (* A delay nothing else can resume needs no resumer: its timer
       event pushes the zero-delay resume event a [Suspend] resumer
       would, so the two event shapes are the same. *)
    | Delay (engine, duration) ->
        Some
          (fun k ->
            Engine.schedule_at engine (Engine.now engine +. duration) (fun () ->
                Engine.schedule engine (fun () -> Effect.Deep.continue k ())))
    | _ -> None
  in
  Engine.schedule engine (fun () ->
      Effect.Deep.match_with body ()
        {
          retc = (fun () -> ());
          exnc = (fun e -> !on_uncaught ~name e);
          effc = handler;
        })

let suspend register = Effect.perform (Suspend register)

let delay engine duration =
  if duration < 0.0 then invalid_arg "Proc.delay: negative duration";
  Effect.perform (Delay (engine, duration))

let yield engine = delay engine 0.0

(* A single-use synchronization cell: one waiter, one fulfiller. Used for
   request/reply rendezvous in the kernel. *)
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
    | Empty ->
        suspend (fun resume ->
            match t.state with
            | Empty -> t.state <- Waiting resume
            | Full result -> resume result
            | Waiting _ -> assert false)
end

(* An unbounded FIFO mailbox with blocking receive; the building block
   for per-process kernel message queues. *)
module Mailbox = struct
  type 'a t = {
    items : 'a Queue.t;
    waiters : 'a resumer Queue.t;
  }

  let create () = { items = Queue.create (); waiters = Queue.create () }

  let send t x =
    match Queue.take_opt t.waiters with
    | Some resume -> resume (Ok x)
    | None -> Queue.add x t.items

  let receive t =
    match Queue.take_opt t.items with
    | Some x -> x
    | None -> suspend (fun resume -> Queue.add resume t.waiters)

  let length t = Queue.length t.items

  let waiters t = Queue.length t.waiters

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
