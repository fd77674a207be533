(* Reference model of the kernel's replicated-service write log: the
   original newest-first list implementation, kept as the oracle the
   kernel's queue-and-index log is checked against (as {!Vsim.Heap} is
   for the timer wheel). Every append past the cap copies the list, so
   it is only fit for tests. *)

type 'm entry = {
  origin : int;
  seq : int;
  msg : 'm;
  mutable committed : bool;
}

type 'm t = {
  mutable log : 'm entry list;  (* newest first *)
  mutable len : int;
  trim_hw : (int, int) Hashtbl.t;
}

(* Must match the kernel's cap. *)
let cap = 1024

let create () = { log = []; len = 0; trim_hw = Hashtbl.create 4 }

(* Keep the newest [cap] entries; of the older ones, drop the committed
   (recording their per-origin high-water mark) and keep the pending. *)
let trim t =
  if t.len > cap then begin
    let rec split n = function
      | [] -> ([], [])
      | e :: rest ->
          if n = 0 then ([], e :: rest)
          else
            let kept, dropped = split (n - 1) rest in
            (e :: kept, dropped)
    in
    let kept, dropped = split cap t.log in
    let stragglers = List.filter (fun e -> not e.committed) dropped in
    List.iter
      (fun e ->
        if e.committed then
          let prev =
            match Hashtbl.find_opt t.trim_hw e.origin with
            | Some s -> s
            | None -> 0
          in
          Hashtbl.replace t.trim_hw e.origin (max prev e.seq))
      dropped;
    t.log <- kept @ stragglers;
    t.len <- List.length t.log
  end

let log t ~origin ~seq msg =
  t.log <- { origin; seq; msg; committed = false } :: t.log;
  t.len <- t.len + 1;
  trim t

let commit t ~origin ~seq =
  List.iter
    (fun e -> if e.origin = origin && e.seq = seq then e.committed <- true)
    t.log

let abort t ~origin ~seq =
  t.log <-
    List.filter
      (fun e -> not (e.origin = origin && e.seq = seq && not e.committed))
      t.log;
  t.len <- List.length t.log

(* The committed entries, oldest first. *)
let committed t =
  List.rev
    (List.filter_map
       (fun e -> if e.committed then Some (e.origin, e.seq, e.msg) else None)
       t.log)

let pending t = List.exists (fun e -> not e.committed) t.log

let trimmed t =
  Hashtbl.fold (fun origin seq acc -> (origin, seq) :: acc) t.trim_hw []
  |> List.sort compare
