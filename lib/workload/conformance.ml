(* CSNH protocol conformance checks.

   The paper's uniformity claim is that ANY server implementing name
   spaces presents the same client interface: the standard CSname
   request fields, the standard operations, the standard reply codes,
   typed descriptions, and context directories readable through the I/O
   protocol. This kit runs a protocol-level battery against an arbitrary
   server and reports which behaviours hold — the compliance suite an
   open-source release of the protocol would ship. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
open Vnaming

type verdict = Pass | Fail of string | Skip of string

let pp_verdict ppf = function
  | Pass -> Fmt.string ppf "pass"
  | Fail why -> Fmt.pf ppf "FAIL: %s" why
  | Skip why -> Fmt.pf ppf "skip (%s)" why

type check = { check_name : string; verdict : verdict }

type report = { server : Pid.t; label : string; checks : check list }

let passed report =
  List.for_all
    (fun c -> match c.verdict with Fail _ -> false | Pass | Skip _ -> true)
    report.checks

let pp_report ppf report =
  Fmt.pf ppf "%s (%a): %s@." report.label Pid.pp report.server
    (if passed report then "conformant" else "NOT conformant");
  List.iter
    (fun c -> Fmt.pf ppf "  %-38s %a@." c.check_name pp_verdict c.verdict)
    report.checks

(* One transaction against the server; returns the reply. *)
let transact self server msg =
  match Kernel.send self server msg with
  | Ok (reply, replier) -> Ok (reply, replier)
  | Error e -> Error (Fmt.str "transaction failed: %a" Kernel.pp_error e)

let named_request ?payload ?(context = Context.Well_known.default) code name =
  Vmsg.request ~name:(Csname.make_req ~context name) ?payload code

(* --- individual checks --- *)

(* Every reply must carry a decodable standard reply code. *)
let check_reply_code_well_formed self server =
  match transact self server (named_request Vmsg.Op.query_name "") with
  | Error why -> Fail why
  | Ok (reply, _) -> (
      if not reply.Vmsg.is_reply then Fail "response is not a reply message"
      else
        match Reply.of_int reply.Vmsg.code with
        | Some _ -> Pass
        | None -> Fail (Fmt.str "undecodable reply code %d" reply.Vmsg.code))

(* MapContext on the empty name in the default context must return the
   server's own (pid, context) pair. *)
let check_map_context self server =
  match transact self server (named_request Vmsg.Op.map_context "") with
  | Error why -> Fail why
  | Ok (reply, replier) -> (
      match (Vmsg.reply_code reply, reply.Vmsg.payload) with
      | Some Reply.Ok, Vmsg.P_context_spec spec ->
          if Pid.equal spec.Context.server replier then Pass
          else Fail "returned a context on a different server without forwarding"
      | Some Reply.Ok, _ -> Fail "MapContext reply carried no context spec"
      | Some code, _ -> Fail (Fmt.str "MapContext refused: %s" (Reply.to_string code))
      | None, _ -> Fail "not a reply")

(* QueryName on the empty name must describe the context itself, as a
   directory (§5.5): a context is an object a client can ask about like
   any other. *)
let check_query_context self server =
  match transact self server (named_request Vmsg.Op.query_name "") with
  | Error why -> Fail why
  | Ok (reply, _) -> (
      match (Vmsg.reply_code reply, reply.Vmsg.payload) with
      | Some Reply.Ok, Vmsg.P_descriptor d ->
          if d.Descriptor.obj_type = Descriptor.Directory then Pass
          else
            Fail
              (Fmt.str "described the context as %s"
                 (Descriptor.obj_type_to_string d.Descriptor.obj_type))
      | Some Reply.Ok, _ -> Fail "QueryName reply carried no description"
      | Some code, _ ->
          Fail (Fmt.str "QueryName refused: %s" (Reply.to_string code))
      | None, _ -> Fail "not a reply")

(* An unknown operation code must be answered Bad_operation, not break
   the server (the skeleton requirement of §5.3: servers can process
   requests they do not understand). *)
let check_unknown_operation self server =
  let unknown = 9999 in
  match transact self server (Vmsg.request unknown) with
  | Error why -> Fail why
  | Ok (reply, _) -> (
      match Vmsg.reply_code reply with
      | Some Reply.Bad_operation -> Pass
      | Some code ->
          Fail (Fmt.str "unknown op answered %s, not bad operation"
                  (Reply.to_string code))
      | None -> Fail "not a reply")

(* ...and the server must still answer afterwards. *)
let check_alive_after_unknown self server =
  match transact self server (named_request Vmsg.Op.map_context "") with
  | Error why -> Fail (Fmt.str "server unresponsive after unknown op: %s" why)
  | Ok _ -> Pass

(* Names with NUL bytes are illegal everywhere. *)
let check_illegal_name self server =
  match transact self server (named_request Vmsg.Op.query_name "bad\000name") with
  | Error why -> Fail why
  | Ok (reply, _) -> (
      match Vmsg.reply_code reply with
      | Some (Reply.Illegal_name | Reply.Not_found) -> Pass
      | Some Reply.Ok -> Fail "accepted a name containing NUL"
      | Some code -> Fail (Fmt.str "unexpected code %s" (Reply.to_string code))
      | None -> Fail "not a reply")

(* A bad context identifier must be rejected as such. *)
let check_bad_context self server =
  match
    transact self server (named_request ~context:31999 Vmsg.Op.query_name "x")
  with
  | Error why -> Fail why
  | Ok (reply, _) -> (
      match Vmsg.reply_code reply with
      | Some (Reply.Bad_context | Reply.Not_found) -> Pass
      | Some Reply.Ok -> Fail "accepted an invalid context id"
      | Some code -> Fail (Fmt.str "unexpected code %s" (Reply.to_string code))
      | None -> Fail "not a reply")

(* The default context must be readable as a context directory through
   the I/O protocol, yielding decodable typed records (§5.6). *)
let check_context_directory self server =
  let open_msg =
    named_request ~payload:(Vmsg.P_open { mode = Vmsg.Directory_listing })
      Vmsg.Op.open_instance ""
  in
  match transact self server open_msg with
  | Error why -> Fail why
  | Ok (reply, replier) -> (
      match (Vmsg.reply_code reply, reply.Vmsg.payload) with
      | Some Reply.Ok, Vmsg.P_instance info -> (
          let instance = { Vio.Client.server = replier; info } in
          match Vio.Client.read_directory self instance with
          | Ok (_ : Descriptor.t list) -> (
              match Vio.Client.release self instance with
              | Ok () -> Pass
              | Error e -> Fail (Fmt.str "release failed: %a" Vio.Verr.pp e))
          | Error e -> Fail (Fmt.str "directory not decodable: %a" Vio.Verr.pp e))
      | Some Reply.Ok, _ -> Fail "Open reply carried no instance"
      | Some code, _ ->
          Fail (Fmt.str "cannot open context directory: %s" (Reply.to_string code))
      | None, _ -> Fail "not a reply")

(* Directory records must agree with per-object queries — the §5.6
   identity. Servers whose objects are unnameable individually skip. *)
let check_directory_matches_queries self server =
  let open_msg =
    named_request ~payload:(Vmsg.P_open { mode = Vmsg.Directory_listing })
      Vmsg.Op.open_instance ""
  in
  match transact self server open_msg with
  | Error why -> Fail why
  | Ok (reply, replier) -> (
      match (Vmsg.reply_code reply, reply.Vmsg.payload) with
      | Some Reply.Ok, Vmsg.P_instance info -> (
          let instance = { Vio.Client.server = replier; info } in
          let records = Vio.Client.read_directory self instance in
          ignore (Vio.Client.release self instance);
          match records with
          | Error e -> Fail (Fmt.str "unreadable directory: %a" Vio.Verr.pp e)
          | Ok [] -> Skip "empty context"
          | Ok records -> (
              let mismatches =
                List.filter_map
                  (fun (d : Descriptor.t) ->
                    match
                      transact self server
                        (named_request Vmsg.Op.query_name d.Descriptor.name)
                    with
                    | Ok (q, _) -> (
                        match (Vmsg.reply_code q, q.Vmsg.payload) with
                        | Some Reply.Ok, Vmsg.P_descriptor qd ->
                            if qd.Descriptor.obj_type = d.Descriptor.obj_type
                            then None
                            else Some d.Descriptor.name
                        | _ -> Some d.Descriptor.name)
                    | Error _ -> Some d.Descriptor.name)
                  records
              in
              match mismatches with
              | [] -> Pass
              | names ->
                  Fail
                    (Fmt.str "records disagree with queries: %s"
                       (String.concat ", " names))))
      | _ -> Fail "cannot open context directory")

(* Released instances must be invalid. *)
let check_instance_lifecycle self server =
  let open_msg =
    named_request ~payload:(Vmsg.P_open { mode = Vmsg.Directory_listing })
      Vmsg.Op.open_instance ""
  in
  match transact self server open_msg with
  | Error why -> Fail why
  | Ok (reply, replier) -> (
      match (Vmsg.reply_code reply, reply.Vmsg.payload) with
      | Some Reply.Ok, Vmsg.P_instance info -> (
          let instance = { Vio.Client.server = replier; info } in
          match Vio.Client.release self instance with
          | Error e -> Fail (Fmt.str "release failed: %a" Vio.Verr.pp e)
          | Ok () -> (
              match Vio.Client.read_block self instance ~block:0 with
              | Error (Vio.Verr.Denied Reply.Invalid_instance) -> Pass
              | Ok _ -> Fail "read succeeded on a released instance"
              | Error e ->
                  Fail (Fmt.str "unexpected error on released instance: %a"
                          Vio.Verr.pp e)))
      | _ -> Fail "cannot open an instance to test")

let all_checks =
  [
    ("reply codes well-formed", check_reply_code_well_formed);
    ("MapContext on default context", check_map_context);
    ("QueryName on default context", check_query_context);
    ("unknown operation rejected", check_unknown_operation);
    ("alive after unknown operation", check_alive_after_unknown);
    ("illegal names rejected", check_illegal_name);
    ("bad context rejected", check_bad_context);
    ("context directory readable (§5.6)", check_context_directory);
    ("directory = queries (§5.6)", check_directory_matches_queries);
    ("instance lifecycle", check_instance_lifecycle);
  ]

(* Run the battery against one server. Must be called from a fiber. *)
let check self ~label server =
  {
    server;
    label;
    checks =
      List.map
        (fun (check_name, run) -> { check_name; verdict = run self server })
        all_checks;
  }
