(* The mail server: a name space whose syntax is imposed from outside
   the system ("cheriton@su-score.ARPA") yet accessed through the same
   name-handling protocol — the extensibility argument of §2.2.

   Unlike the hierarchical servers, this server interprets the entire
   uninterpreted remainder of the name itself as one mailbox name (the
   protocol "imposes minimal restrictions on name syntax, and no
   restrictions on name interpretation"), so it bypasses the
   left-to-right component walk entirely. Messages move through the
   standard I/O protocol: Append-open a mailbox and each Write delivers
   one message; Read-open returns the mailbox contents. *)

module Kernel = Vkernel.Kernel
module Service = Vkernel.Service
open Vnaming

type message = { m_from : string; m_body : string; m_at : float }

type mailbox = {
  box_name : string;
  mutable messages : message list; (* newest first *)
  created : float;
}

type session = Deliver of mailbox | Fetch of bytes

type t = {
  boxes : (string, mailbox) Hashtbl.t;
  sessions : (t, session) Instance_server.t;
  engine : Vsim.Engine.t;
  stats : Csnh.server_stats;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid
let stats t = t.stats

(* Mailbox names follow the externally imposed user@host convention. *)
let valid_mailbox_name name =
  match String.index_opt name '@' with
  | Some i -> i > 0 && i < String.length name - 1 && not (String.contains name '/')
  | None -> false

let mailboxes t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.boxes [] |> List.sort compare

let messages t name =
  match Hashtbl.find_opt t.boxes name with
  | Some box -> List.rev box.messages
  | None -> []

let describe box =
  Descriptor.make ~obj_type:Descriptor.Mailbox
    ~size:(List.length box.messages) ~created:box.created box.box_name

let render_mailbox box =
  let render m = Fmt.str "From: %s (at %.1f)\n%s\n" m.m_from m.m_at m.m_body in
  Bytes.of_string (String.concat "\n" (List.rev_map render box.messages))

let find_or_create t ~now name =
  match Hashtbl.find_opt t.boxes name with
  | Some box -> box
  | None ->
      let box = { box_name = name; messages = []; created = now } in
      Hashtbl.replace t.boxes name box;
      box

(* Handle a CSname request: the whole remainder is the mailbox name. *)
let handle_csname t ~sender:_ (msg : Vmsg.t) req =
  let open Vmsg in
  let now = Vsim.Engine.now t.engine in
  let name = Csname.remaining req in
  if req.Csname.context <> Context.Well_known.default then
    reply Reply.Bad_context
  else if name = "" then
    if msg.code = Op.open_instance then begin
      (* The mail context directory: every mailbox. *)
      let image =
        Descriptor.directory_to_bytes
          (List.map (fun n -> describe (Hashtbl.find t.boxes n)) (mailboxes t))
      in
      Instance_server.add t.sessions (Fetch image)
        ~file_size:(Bytes.length image)
    end
    else if msg.code = Op.map_context then
      ok
        ~payload:
          (P_context_spec
             (Context.spec ~server:(pid t) ~context:Context.Well_known.default))
        ()
    else reply Reply.Bad_operation
  else if not (valid_mailbox_name name) then reply Reply.Illegal_name
  else if msg.code = Op.open_instance then
    match msg.payload with
    | P_open { mode = Append | Write } ->
        let box = find_or_create t ~now name in
        Instance_server.add t.sessions (Deliver box) ~file_size:0
    | P_open { mode = Read } -> (
        match Hashtbl.find_opt t.boxes name with
        | None -> reply Reply.Not_found
        | Some box ->
            let image = render_mailbox box in
            Instance_server.add t.sessions (Fetch image)
              ~file_size:(Bytes.length image))
    | P_open { mode = Directory_listing } -> reply Reply.Not_a_context
    | _ -> reply Reply.Bad_operation
  else if msg.code = Op.query_name then
    match Hashtbl.find_opt t.boxes name with
    | Some box -> ok ~payload:(P_descriptor (describe box)) ()
    | None -> reply Reply.Not_found
  else if msg.code = Op.remove_object then
    if Hashtbl.mem t.boxes name then begin
      Hashtbl.remove t.boxes name;
      ok ()
    end
    else reply Reply.Not_found
  else reply Reply.Bad_operation

(* A delivery session is write-only: each Write is one message, its
   "From: user\n" head optional, the rest the body. A fetch session reads
   the mailbox as rendered at its Open. *)
let kind =
  {
    Instance_server.block_size = 2048;
    read =
      (fun _ session ~block:_ ->
        match session with
        | Fetch image -> Instance_server.Image image
        | Deliver _ -> Instance_server.Refused Reply.No_permission);
    write =
      Some
        (fun t session ~block:_ data ->
          match session with
          | Deliver box ->
              let text = Bytes.to_string data in
              let m_from, m_body =
                match String.index_opt text '\n' with
                | Some i
                  when String.length text > 5 && String.sub text 0 5 = "From:"
                  ->
                    ( String.trim (String.sub text 5 (i - 5)),
                      String.sub text (i + 1) (String.length text - i - 1) )
                | _ -> ("unknown", text)
              in
              let m_at = Vsim.Engine.now t.engine in
              box.messages <- { m_from; m_body; m_at } :: box.messages;
              Ok (Bytes.length data)
          | Fetch _ -> Error Reply.No_permission);
    describe =
      (fun _ instance -> function
        | Deliver box -> Ok (describe box)
        | Fetch image ->
            Ok
              (Descriptor.make ~obj_type:Descriptor.Mailbox
                 ~size:(Bytes.length image) ~instance "[mail]"));
    release = (fun _ _ -> ());
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      boxes = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      engine;
      stats = Csnh.make_stats "mail";
      pid = None;
    }
  in
  let server_pid =
    Kernel.spawn host ~name:"mail-server" (fun self ->
        (* Custom loop: this server's name interpretation is not
           component-wise, so it does not use the generic walk. *)
        let rec loop () =
          let msg, sender = Kernel.receive self in
          Vsim.Stats.Counter.incr t.stats.Csnh.requests;
          let reply_msg =
            match msg.Vmsg.name with
            | Some req when Vmsg.Op.is_csname_request msg.Vmsg.code ->
                Vsim.Proc.delay engine Vnet.Calibration.csname_common_cpu;
                handle_csname t ~sender msg req
            | Some _ | None -> (
                match Instance_server.handle_io t.sessions t msg with
                | Some r -> r
                | None -> Vmsg.reply Reply.Bad_operation)
          in
          ignore (Kernel.reply self ~to_:sender reply_msg);
          loop ()
        in
        loop ())
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.mail server_pid Service.Both;
  t
