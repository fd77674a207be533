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
  sessions : (t, [ `Conn of conn | `Dir of bytes ]) Instance_server.t;
  engine : Vsim.Engine.t;
  stats : Csnh.server_stats;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid
let stats t = t.stats

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
  else begin
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
    Hashtbl.replace t.conns name c;
    (* The handshake completes after one WAN round trip. *)
    Vsim.Engine.schedule ~delay:wan_rtt_ms t.engine (fun () ->
        if c.state = Syn_sent then c.state <- Established);
    Ok c
  end

let handle_csname t ~sender:_ (msg : Vmsg.t) _req _ctx remaining =
  let open Vmsg in
  let now = Vsim.Engine.now t.engine in
  match remaining with
  | [] ->
      if msg.code = Op.open_instance then begin
        let image =
          Descriptor.directory_to_bytes (List.map describe (connections t))
        in
        Instance_server.add t.sessions (`Dir image)
          ~file_size:(Bytes.length image)
      end
      else if msg.code = Op.map_context then
        ok
          ~payload:
            (P_context_spec
               (Context.spec ~server:(pid t) ~context:Context.Well_known.default))
          ()
      else reply Reply.Bad_operation
  | [ name ] ->
      if not (valid_conn_name name) then reply Reply.Illegal_name
      else if msg.code = Op.open_instance then
        match msg.payload with
        | P_open { mode = Write | Append } -> (
            match
              match Hashtbl.find_opt t.conns name with
              | Some c when c.state <> Closed -> Ok c
              | Some _ -> Error Reply.Retry (* closing; name not yet reusable *)
              | None -> open_connection t ~now name
            with
            | Error code -> reply code
            | Ok c -> Instance_server.add t.sessions (`Conn c) ~file_size:0)
        | P_open { mode = Read } -> (
            match Hashtbl.find_opt t.conns name with
            | None -> reply Reply.Not_found
            | Some c ->
                Instance_server.add t.sessions (`Conn c)
                  ~file_size:(Buffer.length c.inbound))
        | _ -> reply Reply.Bad_operation
      else if msg.code = Op.query_name then
        match Hashtbl.find_opt t.conns name with
        | Some c -> ok ~payload:(P_descriptor (describe c)) ()
        | None -> reply Reply.Not_found
      else if msg.code = Op.remove_object then
        match Hashtbl.find_opt t.conns name with
        | Some c ->
            c.state <- Closed;
            Hashtbl.remove t.conns name;
            ok ()
        | None -> reply Reply.Not_found
      else reply Reply.Bad_operation
  | _ :: _ -> Vmsg.reply Reply.Not_found

(* A connection session reads what the far end has echoed so far; a
   write goes out and comes back one WAN round trip later. *)
let kind =
  {
    Instance_server.block_size = 512;
    read =
      (fun _ session ~block:_ ->
        match session with
        | `Dir image -> Instance_server.Image image
        | `Conn c -> Instance_server.Image (Buffer.to_bytes c.inbound));
    write =
      Some
        (fun t session ~block:_ data ->
          match session with
          | `Conn c when c.state <> Closed ->
              c.sent_bytes <- c.sent_bytes + Bytes.length data;
              Vsim.Engine.schedule ~delay:wan_rtt_ms t.engine (fun () ->
                  if c.state <> Closed then Buffer.add_bytes c.inbound data);
              Ok (Bytes.length data)
          | `Conn _ | `Dir _ -> Error Reply.No_permission);
    describe =
      (fun _ _ -> function
        | `Conn c -> Ok (describe c)
        | `Dir image ->
            Ok
              (Descriptor.make ~obj_type:Descriptor.Directory
                 ~size:(Bytes.length image) "[internet]"));
    release = (fun _ _ -> ());
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      conns = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      engine;
      stats = Csnh.make_stats "internet";
      pid = None;
    }
  in
  let handlers =
    {
      Csnh.valid_context = (fun ctx -> ctx = Context.Well_known.default);
      lookup = (fun _ _ -> Csnh.Stop);
      handle_csname = (fun ~sender msg req ctx remaining ->
          handle_csname t ~sender msg req ctx remaining);
      handle_other =
        (fun ~sender:_ msg -> Instance_server.handle_io t.sessions t msg);
    }
  in
  let server_pid =
    Kernel.spawn host ~name:"internet-server" (fun self ->
        Csnh.serve self ~stats:t.stats handlers)
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.internet server_pid Service.Both;
  t
