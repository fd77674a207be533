(* Replica-side write deduplication and ordering.

   A replicated write arrives stamped with the coordinator's (origin,
   seq) — see {!Vmsg.wseq}. Each member keeps, per origin, the highest
   sequence number it has applied and the reply to that write: a
   coordinator sends one write at a time and logs the next only after
   every member has answered, so a retry (same seq resent after a lost
   frame) can only ask for that reply. An older seq comes from a
   catch-up replay, which ignores replies, and is acknowledged with a
   plain Ok.

   Admission is strictly in-order per origin: the only admissible fresh
   write is applied+1. A larger seq means this member missed a write
   (lost frame, partition) — applying it anyway would let the member
   skip the missed write forever, and would apply operations on the
   same name out of order (create then remove could invert). Such
   writes are rejected as [`Gap]; the member stays consistent at its
   high-water mark until a log replay (revive, or heal-time sync)
   delivers the missing sequence numbers in order.

   The applied high-water marks model durable state — like the file
   system itself, they survive a server restart. The replies are
   memory, dropped on restart ({!drop_replies}). *)

type applied = { mutable seq : int; mutable reply : Vmsg.t option }

(* origin -> its highest applied seq and that write's reply *)
type t = (int, applied) Hashtbl.t

let create () : t = Hashtbl.create 8

let applied_seq t ~origin =
  match Hashtbl.find t origin with a -> a.seq | exception Not_found -> 0

let admit t ~origin ~seq =
  let applied = applied_seq t ~origin in
  if seq = applied + 1 then `Fresh
  else if seq > applied then `Gap
  else
    match Hashtbl.find_opt t origin with
    | Some a when a.seq = seq -> `Replay a.reply
    | Some _ | None -> `Replay None

let record t ~origin ~seq reply =
  match Hashtbl.find t origin with
  | a ->
      a.seq <- seq;
      a.reply <- Some reply
  | exception Not_found -> Hashtbl.add t origin { seq; reply = Some reply }

let drop_replies t = Hashtbl.iter (fun _ a -> a.reply <- None) t
