(* The simulated disk behind a storage server: 512-byte pages delivered
   every 15 ms (the figure the paper's stream measurement assumes), with
   accesses serialized on the single arm.

   Synchronous reads/writes block the calling fiber; [read_async]
   supports the file server's read-ahead, queueing the transfer and
   reporting when the page will be in memory. *)

module Calibration = Vnet.Calibration

type t = {
  engine : Vsim.Engine.t;
  pages : (int, bytes) Hashtbl.t;
  capacity_pages : int option;
  mutable busy_until : float;
  writes : Vsim.Stats.Counter.t;
}

let page_bytes = Calibration.disk_page_bytes

let create ?capacity_pages engine =
  {
    engine;
    pages = Hashtbl.create 256;
    capacity_pages;
    busy_until = 0.0;
    writes = Vsim.Stats.Counter.create "disk.writes";
  }

let capacity_pages t = t.capacity_pages

(* Forget queued setup traffic: the arm is idle from now on. Benchmarks
   call this after populating the disk outside measured time. *)
let reset_arm t = t.busy_until <- Vsim.Engine.now t.engine
let write_count t = Vsim.Stats.Counter.value t.writes

(* Claim the arm for one page transfer; returns its completion time. *)
let enqueue_transfer t =
  let now = Vsim.Engine.now t.engine in
  let start = Float.max now t.busy_until in
  t.busy_until <- start +. Calibration.disk_page_ms;
  t.busy_until

(* Wait until [time] (no-op if past). *)
let wait_until t time =
  let now = Vsim.Engine.now t.engine in
  if time > now then Vsim.Proc.delay t.engine (time -. now)

let peek t page =
  match Hashtbl.find_opt t.pages page with
  | Some data -> Bytes.copy data
  | None -> Bytes.make page_bytes '\000'

(* Blocking read of one page (missing pages read as zeroes). *)
let read_page t page =
  wait_until t (enqueue_transfer t);
  peek t page

(* Start reading a page without blocking; the result is the time at
   which the page will be in memory. *)
let read_page_async t page =
  ignore page;
  enqueue_transfer t

let write_page t page data =
  if Bytes.length data > page_bytes then invalid_arg "Disk.write_page: too large";
  Vsim.Stats.Counter.incr t.writes;
  wait_until t (enqueue_transfer t);
  let stored = Bytes.make page_bytes '\000' in
  Bytes.blit data 0 stored 0 (Bytes.length data);
  Hashtbl.replace t.pages page stored

(* Write without waiting for the platter (write-behind, used for
   directory updates whose latency the paper's figures do not charge to
   the client path). *)
let write_page_behind t page data =
  if Bytes.length data > page_bytes then
    invalid_arg "Disk.write_page_behind: too large";
  Vsim.Stats.Counter.incr t.writes;
  ignore (enqueue_transfer t);
  let stored = Bytes.make page_bytes '\000' in
  Bytes.blit data 0 stored 0 (Bytes.length data);
  Hashtbl.replace t.pages page stored
