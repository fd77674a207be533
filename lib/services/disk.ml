(* The simulated disk behind a storage server: 512-byte pages delivered
   every 15 ms (the figure the paper's stream measurement assumes), with
   accesses serialized on the single arm.

   Synchronous reads/writes block the calling fiber; [read_async]
   supports the file server's read-ahead, queueing the transfer and
   reporting when the page will be in memory.

   A page keeps only the bytes last written to it and reads back
   zero-padded to a full page, so a write of no bytes (a directory's
   write-behind) stores nothing. *)

module Calibration = Vnet.Calibration

(* When the arm is next free. A record of floats only keeps the time
   unboxed, so claiming the arm allocates nothing. *)
type arm = { mutable busy_until : float }

type t = {
  engine : Vsim.Engine.t;
  pages : (int, bytes) Hashtbl.t;  (* page -> its bytes, unpadded *)
  capacity_pages : int option;
  arm : arm;
  writes : Vsim.Stats.Counter.t;
}

let page_bytes = Calibration.disk_page_bytes

let create ?capacity_pages engine =
  {
    engine;
    pages = Hashtbl.create 256;
    capacity_pages;
    arm = { busy_until = 0.0 };
    writes = Vsim.Stats.Counter.create "disk.writes";
  }

let capacity_pages t = t.capacity_pages

(* Forget queued setup traffic: the arm is idle from now on. Benchmarks
   call this after populating the disk outside measured time. *)
let reset_arm t = t.arm.busy_until <- (Vsim.Engine.clock t.engine).at
let write_count t = Vsim.Stats.Counter.value t.writes

(* Claim the arm for one page transfer. *)
let claim_arm t =
  let now = (Vsim.Engine.clock t.engine).at in
  let start = if now > t.arm.busy_until then now else t.arm.busy_until in
  t.arm.busy_until <- start +. Calibration.disk_page_ms

(* [claim_arm], returning the transfer's completion time. *)
let enqueue_transfer t =
  claim_arm t;
  t.arm.busy_until

(* Wait until [time] (no-op if past). *)
let wait_until t time =
  let now = (Vsim.Engine.clock t.engine).at in
  if time > now then Vsim.Proc.delay t.engine (time -. now)

let peek t page =
  let out = Bytes.make page_bytes '\000' in
  (match Hashtbl.find_opt t.pages page with
  | Some data -> Bytes.blit data 0 out 0 (Bytes.length data)
  | None -> ());
  out

(* Blocking read of one page (missing pages read as zeroes). *)
let read_page t page =
  wait_until t (enqueue_transfer t);
  peek t page

(* Start reading a page without blocking; the result is the time at
   which the page will be in memory. *)
let read_page_async t page =
  ignore page;
  enqueue_transfer t

(* A write replaces the whole page: what it does not cover reads back
   as zeroes. *)
let store t page data =
  if Bytes.length data = 0 then Hashtbl.remove t.pages page
  else Hashtbl.replace t.pages page (Bytes.copy data)

let write_page t page data =
  if Bytes.length data > page_bytes then invalid_arg "Disk.write_page: too large";
  Vsim.Stats.Counter.incr t.writes;
  wait_until t (enqueue_transfer t);
  store t page data

(* Write without waiting for the platter (write-behind, used for
   directory updates whose latency the paper's figures do not charge to
   the client path). *)
let write_page_behind t page data =
  if Bytes.length data > page_bytes then
    invalid_arg "Disk.write_page_behind: too large";
  Vsim.Stats.Counter.incr t.writes;
  claim_arm t;
  store t page data
