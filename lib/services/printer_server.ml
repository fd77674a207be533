(* The laser printer spooler: jobs are created by opening a name in the
   printer's context for writing; releasing the instance queues the job.
   The context directory lists the queue, so the standard "list
   directory" program shows printer jobs exactly like files (§6). *)

module Kernel = Vkernel.Kernel
module Service = Vkernel.Service
open Vnaming

(* Printing proceeds at one 512-byte page per this many ms. *)
let ms_per_page = 400.0

type job_state = Spooling | Queued | Printing | Done

let state_to_string = function
  | Spooling -> "spooling"
  | Queued -> "queued"
  | Printing -> "printing"
  | Done -> "done"

type job = {
  job_name : string;
  mutable content : Buffer.t;
  mutable state : job_state;
  submitted : float;
  mutable completed : float option;
}

type t = {
  jobs : (string, job) Hashtbl.t;
  sessions : (t, job) Instance_server.t;
  mutable queue : job list; (* oldest first *)
  mutable printing : bool;
  engine : Vsim.Engine.t;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid

let jobs t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
  |> List.sort (fun a b -> Float.compare a.submitted b.submitted)

let job_state t name =
  Option.map (fun j -> j.state) (Hashtbl.find_opt t.jobs name)

let describe job =
  Descriptor.make ~obj_type:Descriptor.Printer_job
    ~size:(Buffer.length job.content) ~created:job.submitted
    ~attrs:[ ("state", state_to_string job.state) ]
    job.job_name

(* Work the queue: one page per [ms_per_page], one job at a time. *)
let rec pump t =
  if not t.printing then
    match t.queue with
    | [] -> ()
    | job :: rest ->
        t.queue <- rest;
        t.printing <- true;
        job.state <- Printing;
        let pages = max 1 ((Buffer.length job.content + 511) / 512) in
        Vsim.Engine.schedule ~delay:(float_of_int pages *. ms_per_page) t.engine
          (fun () ->
            job.state <- Done;
            job.completed <- Some (Vsim.Engine.now t.engine);
            t.printing <- false;
            pump t)

let submit t job =
  if job.state = Spooling then begin
    job.state <- Queued;
    t.queue <- t.queue @ [ job ];
    pump t
  end

(* Opening a free name for writing spools a new job; closing the spool
   submits it. Only a queued job can be removed. *)
let handle_name t (msg : Vmsg.t) name found =
  let open Vmsg in
  if msg.code = Op.open_instance then
    match (msg.payload, found) with
    | P_open { mode = Write | Append }, Some _ -> reply Reply.Duplicate_name
    | P_open { mode = Write | Append }, None ->
        let job =
          {
            job_name = name;
            content = Buffer.create 512;
            state = Spooling;
            submitted = Vsim.Engine.now t.engine;
            completed = None;
          }
        in
        (* No later state's record is longer than a spooling job's. *)
        if not (Csnh.listable (describe job)) then reply Reply.Illegal_name
        else begin
          Hashtbl.replace t.jobs name job;
          Instance_server.add t.sessions job ~file_size:0
        end
    | P_open _, _ -> reply Reply.No_permission
    | _ -> reply Reply.Bad_operation
  else if msg.code = Op.remove_object then
    match found with
    | Some job when job.state = Queued ->
        t.queue <- List.filter (fun j -> j != job) t.queue;
        Hashtbl.remove t.jobs name;
        ok ()
    | Some _ -> reply Reply.No_permission
    | None -> reply Reply.Not_found
  else reply Reply.Bad_operation

(* The queue is the context: its directory lists the jobs, oldest
   first. *)
let context t =
  {
    Csnh.directory = "[queue]";
    owner = "system";
    objects = (fun () -> jobs t);
    describe;
    find = (fun name -> Ok (Hashtbl.find_opt t.jobs name));
    listings = Instance_server.listings t.sessions;
    handle_name = handle_name t;
  }

(* A job spools while its instance is open; closing the spool submits
   it. *)
let kind =
  {
    Instance_server.block_size = 512;
    read =
      (fun _ job ~block:_ ->
        Instance_server.Image (Buffer.to_bytes job.content));
    write =
      (fun _ job ~block:_ data ->
        if job.state = Spooling then begin
          Buffer.add_bytes job.content data;
          Ok (Bytes.length data)
        end
        else Error Reply.No_permission);
    describe = (fun _ _ job -> Ok (describe job));
    release = submit;
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      jobs = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      queue = [];
      printing = false;
      engine;
      pid = None;
    }
  in
  t.pid <-
    Some
      (Csnh.serve_flat host ~name:"printer-server" ~service:Service.Id.printer
         Service.Both
         ~other:(fun msg -> Instance_server.handle_io t.sessions t msg)
         (context t));
  t
