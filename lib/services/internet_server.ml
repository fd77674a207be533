(* The internet server: a V-kernel-based IP/TCP gateway (§6) whose TCP
   connections are temporary named objects — they appear in a context
   directory next to files and terminals, queried and read through the
   same protocols.

   Connections are simulated loopback endpoints: written data is
   acknowledged and echoed back by the "remote" after a configurable
   round-trip, enough to exercise the naming and I/O paths the paper
   cares about. *)

module Kernel = Vkernel.Kernel
module Service = Vkernel.Service
open Vnaming

(* Simulated WAN round-trip for the echo. *)
let wan_rtt_ms = 80.0

type conn_state = Syn_sent | Established | Closed

let state_to_string = function
  | Syn_sent -> "syn-sent"
  | Established -> "established"
  | Closed -> "closed"

type conn = {
  conn_name : string; (* "host:port" *)
  mutable state : conn_state;
  mutable sent_bytes : int;
  mutable inbound : Buffer.t; (* echoed data awaiting the reader *)
  opened : float;
  conn_instance : int;
}

type t = {
  conns : (string, conn) Hashtbl.t;
  sessions : (t, conn) Instance_server.t;
  engine : Vsim.Engine.t;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid

let connections t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.sort (fun a b -> compare a.conn_name b.conn_name)

let connection_state t name =
  Option.map (fun c -> c.state) (Hashtbl.find_opt t.conns name)

(* Names follow the external host:port convention. *)
let valid_conn_name name =
  match String.index_opt name ':' with
  | Some i -> (
      i > 0
      && i < String.length name - 1
      &&
      match
        int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1))
      with
      | Some port -> port > 0 && port < 65536
      | None -> false)
  | None -> false

let describe c =
  Descriptor.make ~obj_type:Descriptor.Tcp_connection ~size:c.sent_bytes
    ~created:c.opened ~instance:c.conn_instance
    ~attrs:[ ("state", state_to_string c.state) ]
    c.conn_name

let open_connection t ~now name =
  if Hashtbl.mem t.conns name then Error Reply.Duplicate_name
  else
    let c =
      {
        conn_name = name;
        state = Syn_sent;
        sent_bytes = 0;
        inbound = Buffer.create 64;
        opened = now;
        conn_instance = Instance_server.reserve t.sessions;
      }
    in
    (* Judged once established, the state with the longest record. *)
    if not (Csnh.listable (describe { c with state = Established })) then
      Error Reply.Illegal_name
    else begin
      Hashtbl.replace t.conns name c;
      (* The handshake completes after one WAN round trip. *)
      Vsim.Engine.schedule ~delay:wan_rtt_ms t.engine (fun () ->
          if c.state = Syn_sent then c.state <- Established);
      Ok c
    end

(* Opening a name for writing connects to it; a read session drains
   what the far end echoed. Removing a connection closes it. *)
let handle_name t (msg : Vmsg.t) name found =
  let open Vmsg in
  if msg.code = Op.open_instance then
    match (msg.payload, found) with
    | P_open { mode = Write | Append }, Some c when c.state <> Closed ->
        Instance_server.add t.sessions c ~file_size:0
    | P_open { mode = Write | Append }, Some _ ->
        reply Reply.Retry (* closing; name not yet reusable *)
    | P_open { mode = Write | Append }, None -> (
        match open_connection t ~now:(Vsim.Engine.now t.engine) name with
        | Error code -> reply code
        | Ok c -> Instance_server.add t.sessions c ~file_size:0)
    | P_open { mode = Read }, None -> reply Reply.Not_found
    | P_open { mode = Read }, Some c ->
        Instance_server.add t.sessions c
          ~file_size:(Buffer.length c.inbound)
    | _ -> reply Reply.Bad_operation
  else if msg.code = Op.remove_object then
    match found with
    | Some c ->
        c.state <- Closed;
        Hashtbl.remove t.conns name;
        ok ()
    | None -> reply Reply.Not_found
  else reply Reply.Bad_operation

let context t =
  {
    Csnh.directory = "[internet]";
    owner = "system";
    objects = (fun () -> connections t);
    describe;
    find =
      (fun name ->
        if valid_conn_name name then Ok (Hashtbl.find_opt t.conns name)
        else Error Reply.Illegal_name);
    listings = Instance_server.listings t.sessions;
    handle_name = handle_name t;
  }

(* A connection session reads what the far end has echoed so far; a
   write goes out and comes back one WAN round trip later. *)
let kind =
  {
    Instance_server.block_size = 512;
    read =
      (fun _ c ~block:_ -> Instance_server.Image (Buffer.to_bytes c.inbound));
    write =
      (fun t c ~block:_ data ->
        if c.state = Closed then Error Reply.No_permission
        else begin
          c.sent_bytes <- c.sent_bytes + Bytes.length data;
          Vsim.Engine.schedule ~delay:wan_rtt_ms t.engine (fun () ->
              if c.state <> Closed then Buffer.add_bytes c.inbound data);
          Ok (Bytes.length data)
        end);
    describe = (fun _ _ c -> Ok (describe c));
    release = (fun _ _ -> ());
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      conns = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      engine;
      pid = None;
    }
  in
  t.pid <-
    Some
      (Csnh.serve_flat host ~name:"internet-server"
         ~service:Service.Id.internet Service.Both
         ~other:(fun msg -> Instance_server.handle_io t.sessions t msg)
         (context t));
  t
