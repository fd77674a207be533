(* Reference model of the kernel's replicated-service write log: the
   original newest-first list implementation, kept as the oracle the
   kernel's queue log is checked against (as {!Vsim.Heap} is for the
   timer wheel). Every append past the cap copies the list, so it is
   only fit for tests. *)

type 'm t = {
  mutable log : (int * int * 'm) list;  (* newest first *)
  mutable len : int;
  trim_hw : (int, int) Hashtbl.t;
}

(* Must match the kernel's cap. *)
let cap = 1024

let create () = { log = []; len = 0; trim_hw = Hashtbl.create 4 }

(* Keep the newest [cap] entries; each older one leaves its per-origin
   high-water mark behind. *)
let trim t =
  if t.len > cap then begin
    let kept = List.filteri (fun i _ -> i < cap) t.log in
    List.iteri
      (fun i (origin, seq, _) ->
        if i >= cap then
          let prev =
            match Hashtbl.find_opt t.trim_hw origin with
            | Some s -> s
            | None -> 0
          in
          Hashtbl.replace t.trim_hw origin (max prev seq))
      t.log;
    t.log <- kept;
    t.len <- cap
  end

let log t ~origin ~seq msg =
  t.log <- (origin, seq, msg) :: t.log;
  t.len <- t.len + 1;
  trim t

(* Every entry, oldest first. *)
let entries t = List.rev t.log

let trimmed t =
  Hashtbl.fold (fun origin seq acc -> (origin, seq) :: acc) t.trim_hw []
  |> List.sort compare
