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

(* A fetch session reads the image of mailbox [of_box] taken at its
   Open. *)
type session =
  | Deliver of mailbox
  | Fetch of { of_box : string; image : bytes }

type t = {
  boxes : (string, mailbox) Hashtbl.t;
  sessions : (t, session) Instance_server.t;
  engine : Vsim.Engine.t;
  mutable pid : Vkernel.Pid.t option;
}

let pid t = Option.get t.pid

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

(* Appending to a mailbox delivers to it, making it if need be; reading
   one renders it as at the Open. *)
let handle_name t (msg : Vmsg.t) name found =
  let open Vmsg in
  if msg.code = Op.open_instance then
    match (msg.payload, found) with
    | P_open { mode = Append | Write }, _ ->
        let box =
          match found with
          | Some box -> box
          | None ->
              let created = Vsim.Engine.now t.engine in
              let box = { box_name = name; messages = []; created } in
              Hashtbl.replace t.boxes name box;
              box
        in
        Instance_server.add t.sessions (Deliver box) ~file_size:0
    | P_open { mode = Read }, None -> reply Reply.Not_found
    | P_open { mode = Read }, Some box ->
        let image = render_mailbox box in
        Instance_server.add t.sessions (Fetch { of_box = name; image })
          ~file_size:(Bytes.length image)
    | P_open { mode = Directory_listing }, _ -> reply Reply.Not_a_context
    | _ -> reply Reply.Bad_operation
  else if msg.code = Op.remove_object then
    if Option.is_some found then begin
      Hashtbl.remove t.boxes name;
      ok ()
    end
    else reply Reply.Not_found
  else reply Reply.Bad_operation

let context t =
  {
    Csnh.directory = "[mail]";
    owner = "system";
    objects = (fun () -> List.map (Hashtbl.find t.boxes) (mailboxes t));
    describe;
    find =
      (fun name ->
        if valid_mailbox_name name then Ok (Hashtbl.find_opt t.boxes name)
        else Error Reply.Illegal_name);
    listings = Instance_server.listings t.sessions;
    handle_name = handle_name t;
  }

(* A delivery session is write-only: each Write is one message, its
   "From: user\n" head optional, the rest the body. A fetch session reads
   the mailbox as rendered at its Open. *)
let kind =
  {
    Instance_server.block_size = 2048;
    read =
      (fun _ session ~block:_ ->
        match session with
        | Fetch { image; _ } -> Instance_server.Image image
        | Deliver _ -> Instance_server.Refused Reply.No_permission);
    write =
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
        | Fetch { of_box; image } ->
            Ok
              (Descriptor.make ~obj_type:Descriptor.Mailbox
                 ~size:(Bytes.length image) ~instance of_box));
    release = (fun _ _ -> ());
  }

let start host =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_host host) in
  let t =
    {
      boxes = Hashtbl.create 8;
      sessions = Instance_server.create kind;
      engine;
      pid = None;
    }
  in
  let context = context t in
  let server_pid =
    Kernel.spawn host ~name:"mail-server" (fun self ->
        (* Custom loop: this server's name interpretation is not
           component-wise, so it does not use the generic walk (nor
           charge its per-component lookup). The whole remainder is one
           mailbox name. Requests are counted and traced as
           {!Csnh.serve} does. *)
        let server = Kernel.self_pid self in
        let r = Events.of_process self in
        let rec loop () =
          let msg, sender = Kernel.receive self in
          let op = Vmsg.Op.to_string msg.Vmsg.code in
          (match msg.Vmsg.name with
          | Some req when Vmsg.Op.is_csname_request msg.Vmsg.code ->
              let span = Events.request r ~counted:op ~op req in
              Vsim.Proc.delay engine Vnet.Calibration.csname_common_cpu;
              Csnh.reply_closing self r ~sender ~span ~index_to:(-1)
                (if req.Csname.context <> Context.Well_known.default then
                   Vmsg.reply Reply.Bad_context
                 else
                   Csnh.flat_reply context ~server msg req.Csname.context
                     (match Csname.remaining req with
                     | "" -> []
                     | name -> [ name ]))
          | Some _ | None ->
              Events.count r op;
              ignore
                (Kernel.reply self ~to_:sender
                   (match Instance_server.handle_io t.sessions t msg with
                   | Some reply -> reply
                   | None -> Vmsg.reply Reply.Bad_operation)));
          loop ()
        in
        loop ())
  in
  t.pid <- Some server_pid;
  Kernel.set_pid host ~service:Service.Id.mail server_pid Service.Both;
  t
