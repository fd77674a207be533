(* Tests for the core naming library: CSname syntax, the standard
   request fields, descriptors, and the pure name-mapping walk. *)

open Vnaming
module Pid = Vkernel.Pid
module Instance_server = Vnaming.Instance_server

(* --- Csname --- *)

let test_components () =
  Alcotest.(check (list string)) "plain" [ "a"; "b"; "c" ] (Csname.components "a/b/c");
  Alcotest.(check (list string)) "leading slash" [ "a"; "b" ] (Csname.components "/a/b");
  Alcotest.(check (list string)) "repeated slashes" [ "a"; "b" ] (Csname.components "a//b/");
  Alcotest.(check (list string)) "empty" [] (Csname.components "");
  Alcotest.(check (list string)) "root" [] (Csname.components "/")

let test_remaining () =
  let r = Csname.make_req ~index:4 "abc/def" in
  Alcotest.(check string) "remaining after index" "def" (Csname.remaining r);
  let r = Csname.make_req "xyz" in
  Alcotest.(check string) "remaining from zero" "xyz" (Csname.remaining r)

let test_parse_prefix () =
  let r = Csname.make_req "[home]doc/naming.mss" in
  (match Csname.parse_prefix r with
  | Ok (prefix, index) ->
      Alcotest.(check string) "prefix" "home" prefix;
      Alcotest.(check string) "rest" "doc/naming.mss"
        (Csname.remaining { r with Csname.index })
  | Error _ -> Alcotest.fail "expected parse");
  (match Csname.parse_prefix (Csname.make_req "[broken") with
  | Error Reply.Illegal_name -> ()
  | _ -> Alcotest.fail "unterminated prefix must be illegal");
  (match Csname.parse_prefix (Csname.make_req "[]x") with
  | Error Reply.Illegal_name -> ()
  | _ -> Alcotest.fail "empty prefix must be illegal");
  match Csname.parse_prefix (Csname.make_req "noprefix") with
  | Error Reply.Illegal_name -> ()
  | _ -> Alcotest.fail "non-prefixed name must not parse"

let test_advance_past () =
  let r = Csname.make_req "a/bb/c" in
  let r = Csname.advance_past r "a" in
  Alcotest.(check string) "after a" "bb/c" (Csname.remaining r);
  let r = Csname.advance_past r "bb" in
  Alcotest.(check string) "after bb" "c" (Csname.remaining r);
  let r = Csname.advance_past r "c" in
  Alcotest.(check string) "consumed" "" (Csname.remaining r)

let test_advance_mismatch () =
  let r = Csname.make_req "a/b" in
  Alcotest.check_raises "mismatch rejected"
    (Invalid_argument "Csname.advance_past: component does not match name")
    (fun () -> ignore (Csname.advance_past r "zz"))

let prop_advance_consumes_all =
  QCheck.Test.make ~name:"advancing past every component empties the name"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (string_gen_of_size (Gen.int_range 1 8) Gen.printable))
    (fun raw_components ->
      let components =
        List.map
          (fun c ->
            String.map
              (fun ch -> if ch = '/' || ch = '[' || ch = '\000' then 'x' else ch)
              c)
          raw_components
      in
      let name = String.concat "/" components in
      let final =
        List.fold_left Csname.advance_past (Csname.make_req name) components
      in
      Csname.remaining final = "")

let prop_components_roundtrip =
  QCheck.Test.make ~name:"components/join round-trip for canonical names" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 6) (string_gen_of_size (Gen.int_range 1 8) (Gen.char_range 'a' 'z')))
    (fun components ->
      Csname.components (Csname.join components) = components)

(* --- Reply codes --- *)

let all_reply_codes =
  [
    Reply.Ok; Reply.Not_found; Reply.Illegal_name; Reply.Bad_context;
    Reply.No_permission; Reply.Duplicate_name; Reply.Not_a_context;
    Reply.No_server; Reply.Invalid_instance; Reply.End_of_file;
    Reply.Bad_operation; Reply.No_space; Reply.Server_error; Reply.Retry;
  ]

let test_reply_roundtrip () =
  List.iter
    (fun code ->
      match Reply.of_int (Reply.to_int code) with
      | Some code' when code' = code -> ()
      | _ -> Alcotest.failf "reply code %s does not round-trip" (Reply.to_string code))
    all_reply_codes

let test_reply_unknown () =
  Alcotest.(check bool) "unknown code" true (Reply.of_int 999 = None)

(* --- Descriptor marshalling --- *)

let arbitrary_descriptor =
  let open QCheck.Gen in
  let name_gen = string_size ~gen:(char_range 'a' 'z') (int_range 1 20) in
  let obj_gen =
    oneofl
      [
        Descriptor.File; Descriptor.Directory; Descriptor.Context_pointer;
        Descriptor.Prefix_binding; Descriptor.Process; Descriptor.Terminal;
        Descriptor.Printer_job; Descriptor.Mailbox; Descriptor.Tcp_connection;
        Descriptor.Device;
      ]
  in
  let attr_gen = pair name_gen name_gen in
  let gen =
    obj_gen >>= fun obj_type ->
    name_gen >>= fun name ->
    int_range 0 100000 >>= fun size ->
    name_gen >>= fun owner ->
    float_range 0.0 100000.0 >>= fun created ->
    float_range 0.0 100000.0 >>= fun modified ->
    bool >>= fun writable ->
    opt (int_range 0 65534) >>= fun instance ->
    list_size (int_range 0 4) attr_gen >>= fun attrs ->
    return
      (Descriptor.make ~size ~owner ~created ~modified ~writable ?instance ~attrs
         ~obj_type name)
  in
  QCheck.make gen

(* Marshalled times are millisecond-quantized; compare accordingly. *)
let descriptor_eq (a : Descriptor.t) (b : Descriptor.t) =
  a.obj_type = b.obj_type && a.name = b.name && a.size = b.size
  && a.owner = b.owner && a.writable = b.writable && a.instance = b.instance
  && a.attrs = b.attrs
  && Float.abs (a.created -. b.created) < 0.002
  && Float.abs (a.modified -. b.modified) < 0.002

let prop_descriptor_roundtrip =
  QCheck.Test.make ~name:"descriptor marshalling round-trips" ~count:300
    arbitrary_descriptor (fun d ->
      let record, consumed = Descriptor.of_bytes (Descriptor.to_bytes d) 0 in
      descriptor_eq d record && consumed = Bytes.length (Descriptor.to_bytes d))

let prop_directory_roundtrip =
  QCheck.Test.make ~name:"directory images decode to their records" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 10) arbitrary_descriptor)
    (fun records ->
      let image = Descriptor.directory_to_bytes records in
      let decoded = Descriptor.all_of_bytes image in
      List.length decoded = List.length records
      && List.for_all2 descriptor_eq records decoded)

let test_descriptor_malformed () =
  match Descriptor.all_of_bytes (Bytes.of_string "\255\255garbage") with
  | _ -> Alcotest.fail "garbage must not decode"
  | exception Descriptor.Malformed _ -> ()

(* Every length in a record is a 16-bit word: a string or a record
   longer than it can say is refused, not written with a wrong word. *)
let test_descriptor_too_long () =
  let refused what d =
    match Descriptor.to_bytes d with
    | _ -> Alcotest.failf "%s: encoded" what
    | exception Invalid_argument _ -> ()
  in
  refused "a 70,000-byte name"
    (Descriptor.make ~obj_type:Descriptor.File (String.make 70_000 'x'));
  refused "two 40,000-byte strings"
    (Descriptor.make ~obj_type:Descriptor.File
       ~owner:(String.make 40_000 'o') (String.make 40_000 'x'))

let test_modification_limits () =
  let current = Descriptor.make ~obj_type:Descriptor.File ~size:10 ~owner:"a" "f" in
  let requested =
    Descriptor.make ~obj_type:Descriptor.Directory ~size:9999 ~owner:"b"
      ~writable:false "zzz"
  in
  let result = Descriptor.apply_modification ~current ~requested in
  (* Only the modifiable fields change. *)
  Alcotest.(check string) "owner changes" "b" result.Descriptor.owner;
  Alcotest.(check bool) "writable changes" false result.Descriptor.writable;
  Alcotest.(check int) "size kept" 10 result.Descriptor.size;
  Alcotest.(check string) "name kept" "f" result.Descriptor.name;
  Alcotest.(check bool) "type kept" true (result.Descriptor.obj_type = Descriptor.File)

(* --- the walk (§5.4), on a synthetic two-level name space --- *)

let remote_spec =
  Context.spec ~server:(Pid.make ~logical_host:9 ~local_pid:9) ~context:5

(* Contexts: 0 = root {a -> ctx 1, link -> remote, f stops};
   1 = {b -> ctx 2}; 2 = leaves only. *)
let lookup ctx component =
  match (ctx, component) with
  | 0, "a" -> Csnh.Descend 1
  | 0, "link" -> Csnh.Cross remote_spec
  | 1, "b" -> Csnh.Descend 2
  | _ -> Csnh.Stop

let valid_context ctx = ctx >= 0 && ctx <= 2

let walk req = Csnh.walk ~valid_context ~lookup req

let test_walk_to_leaf () =
  match walk (Csname.make_req ~context:0 "a/b/file.txt") with
  | Csnh.Local (ctx, remaining) ->
      Alcotest.(check int) "final context" 2 ctx;
      Alcotest.(check (list string)) "leaf remains" [ "file.txt" ] remaining
  | _ -> Alcotest.fail "expected local resolution"

let test_walk_to_context () =
  match walk (Csname.make_req ~context:0 "a/b") with
  | Csnh.Local (ctx, []) -> Alcotest.(check int) "context itself" 2 ctx
  | _ -> Alcotest.fail "expected empty-remainder local resolution"

let test_walk_empty_name () =
  match walk (Csname.make_req ~context:1 "") with
  | Csnh.Local (1, []) -> ()
  | _ -> Alcotest.fail "empty name names the starting context"

let test_walk_forwards () =
  match walk (Csname.make_req ~context:0 "link/deep/path") with
  | Csnh.Forward (spec, req) ->
      Alcotest.(check bool) "target spec" true (Context.equal_spec spec remote_spec);
      Alcotest.(check string) "uninterpreted part" "deep/path" (Csname.remaining req);
      Alcotest.(check int) "context rewritten" 5 req.Csname.context
  | _ -> Alcotest.fail "expected forward"

let test_walk_forward_consumes_only_prefix () =
  match walk (Csname.make_req ~context:0 "a/b/x/y") with
  | Csnh.Local (2, remaining) ->
      Alcotest.(check (list string)) "stops at first non-context" [ "x"; "y" ] remaining
  | _ -> Alcotest.fail "expected local stop"

let test_walk_bad_context () =
  match walk (Csname.make_req ~context:42 "a") with
  | Csnh.Fail Reply.Bad_context -> ()
  | _ -> Alcotest.fail "invalid starting context must fail"

let test_walk_rejects_prefix () =
  match walk (Csname.make_req ~context:0 "[home]x") with
  | Csnh.Fail Reply.Illegal_name -> ()
  | _ -> Alcotest.fail "prefixed names reach only prefix servers"

let test_walk_rejects_nul () =
  match walk (Csname.make_req ~context:0 "a\000b") with
  | Csnh.Fail Reply.Illegal_name -> ()
  | _ -> Alcotest.fail "NUL bytes are illegal"

(* --- Instance_server (context listings, read-only images) --- *)

let image_table () = Instance_server.create Instance_server.listings_only

let add_image t image =
  Instance_server.add_listing (Instance_server.listings t) ~directory:"d"
    ~owner:"system" image

let opened reply =
  match reply.Vmsg.payload with
  | Vmsg.P_instance info -> info
  | _ -> Alcotest.fail "Open reply carried no instance"

let read_reply t ~instance ~block =
  Option.get
    (Instance_server.handle_io t ()
       (Vmsg.request
          ~payload:(Vmsg.P_read { instance; block })
          Vmsg.Op.read_instance))

let release_reply t instance =
  Option.get
    (Instance_server.handle_io t ()
       (Vmsg.request
          ~payload:(Vmsg.P_instance_arg instance)
          Vmsg.Op.release_instance))

let test_instance_server_lifecycle () =
  let t = image_table () in
  let image = Bytes.init 1200 (fun i -> Char.chr (i mod 256)) in
  let info = opened (add_image t image) in
  Alcotest.(check int) "size" 1200 info.Vmsg.file_size;
  Alcotest.(check int) "live instances" 1 (Instance_server.count t);
  (* Block reads. *)
  let data_length reply =
    match reply.Vmsg.payload with
    | Vmsg.P_data b ->
        Alcotest.(check int)
          "wire bytes" (Bytes.length b) (Vmsg.payload_bytes reply);
        Bytes.length b
    | _ -> Alcotest.fail "no data"
  in
  Alcotest.(check int) "full block" 512
    (data_length (read_reply t ~instance:info.Vmsg.instance ~block:0));
  Alcotest.(check int) "tail block" (1200 - 1024)
    (data_length (read_reply t ~instance:info.Vmsg.instance ~block:2));
  let code reply = Vmsg.reply_code reply in
  Alcotest.(check bool) "EOF expected" true
    (code (read_reply t ~instance:info.Vmsg.instance ~block:3)
    = Some Reply.End_of_file);
  Alcotest.(check bool) "unknown instance" true
    (code (read_reply t ~instance:99 ~block:0) = Some Reply.Invalid_instance);
  Alcotest.(check bool) "release" true
    (code (release_reply t info.Vmsg.instance) = Some Reply.Ok);
  Alcotest.(check bool) "double release" true
    (code (release_reply t info.Vmsg.instance) = Some Reply.Invalid_instance);
  Alcotest.(check int) "none live" 0 (Instance_server.count t)

let test_instance_server_ids_not_reused () =
  (* §4.3: servers maximize time before reusing instance identifiers. *)
  let t = image_table () in
  let open_one () =
    (opened (add_image t Bytes.empty)).Vmsg.instance
  in
  let a = open_one () in
  ignore (release_reply t a);
  let b = open_one () in
  Alcotest.(check bool) "fresh id after release" true (b <> a)

let test_instance_server_handle_io () =
  let t = image_table () in
  let info = opened (add_image t (Bytes.of_string "image-bytes")) in
  (* Reads and queries through the protocol dispatcher. *)
  (match
     Instance_server.handle_io t ()
       (Vmsg.request
          ~payload:(Vmsg.P_read { instance = info.Vmsg.instance; block = 0 })
          Vmsg.Op.read_instance)
   with
  | Some reply -> Alcotest.(check bool) "read ok" true (Vmsg.succeeded reply)
  | None -> Alcotest.fail "read not handled");
  (match
     Instance_server.handle_io t ()
       (Vmsg.request
          ~payload:
            (Vmsg.P_write
               { instance = info.Vmsg.instance; block = 0; data = Bytes.of_string "x" })
          Vmsg.Op.write_instance)
   with
  | Some reply ->
      Alcotest.(check bool) "writes refused" true
        (Vmsg.reply_code reply = Some Reply.No_permission)
  | None -> Alcotest.fail "write not handled");
  match
    Instance_server.handle_io t () (Vmsg.request ~payload:Vmsg.No_payload 9999)
  with
  | None -> () (* not an instance operation: caller's problem *)
  | Some _ -> Alcotest.fail "unknown op must not be claimed"

(* --- Vmsg --- *)

let test_vmsg_sizes () =
  let req = Csname.make_req "abcdef" in
  let m = Vmsg.request ~name:req Vmsg.Op.open_instance in
  Alcotest.(check int) "name counts as payload" 6 (Vmsg.payload_bytes m);
  let m =
    Vmsg.request ~name:req
      ~payload:
        (Vmsg.P_write { instance = 1; block = 0; data = Bytes.create 100 })
      Vmsg.Op.write_instance
  in
  Alcotest.(check int) "payload bytes add" 106 (Vmsg.payload_bytes m);
  let r = Vmsg.ok () in
  Alcotest.(check int) "bare reply" 0 (Vmsg.payload_bytes r);
  Alcotest.(check int) "a bare reply's proper: its code" 2
    (Vmsg.proper_bytes r);
  (* The fullest request: a replicated AddContextName of a static
     target, stamped by the coordinator, with the client's deadline. *)
  let spec = Context.spec ~server:(Pid.make ~logical_host:1 ~local_pid:1) in
  let fullest =
    Vmsg.with_deadline
      (Vmsg.with_wseq
         (Vmsg.request ~name:req
            ~payload:(Vmsg.P_context_spec (spec ~context:0))
            Vmsg.Op.add_context_name)
         { Vmsg.origin = 1; seq = 1 })
      1.0
  in
  Alcotest.(check int) "the fullest request fits" 30
    (Vmsg.proper_bytes fullest);
  (* The fullest reply: an Open's instance under a binding stamp. *)
  let opened =
    Vmsg.with_binding
      (Vmsg.ok
         ~payload:
           (Vmsg.P_instance { instance = 1; file_size = 0; block_size = 512 })
         ())
      { Vmsg.upto = 3; spec = spec ~context:0 }
  in
  Alcotest.(check int) "the fullest reply fits" 20 (Vmsg.proper_bytes opened)

(* Every payload pays its bytes: the name segment plus what the payload
   appends, a description record's being its encoded length. *)
let prop_payload_bytes =
  let open QCheck.Gen in
  let text = string_size ~gen:printable (int_range 0 40) in
  let pid = Pid.make ~logical_host:2 ~local_pid:7 in
  let payload =
    oneof
      [
        map
          (fun d ->
            (Vmsg.P_descriptor d, Bytes.length (Descriptor.to_bytes d)))
          (QCheck.gen arbitrary_descriptor);
        map (fun s -> (Vmsg.P_name s, String.length s)) text;
        map
          (fun s -> (Vmsg.P_data (Bytes.of_string s), String.length s))
          text;
        map
          (fun s ->
            ( Vmsg.P_write
                { instance = 1; block = 0; data = Bytes.of_string s },
              String.length s ))
          text;
        map2
          (fun program argument ->
            ( Vmsg.P_run { program; argument },
              String.length program + String.length argument ))
          text text;
        map
          (fun what ->
            ( Vmsg.P_exception_report { culprit = pid; what },
              String.length what ))
          text;
      ]
  in
  QCheck.Test.make ~name:"every payload pays its bytes" ~count:500
    (QCheck.make (pair (opt text) payload))
    (fun (name, (payload, encoded)) ->
      let segment = match name with Some n -> String.length n | None -> 0 in
      let request =
        Vmsg.request ?name:(Option.map Csname.make_req name) ~payload
          Vmsg.Op.query_name
      in
      Vmsg.payload_bytes request = segment + encoded
      && Vmsg.payload_bytes (Vmsg.ok ~payload ()) = encoded
      && Vmsg.segment_bytes request = Vmsg.payload_bytes request)

let test_vmsg_reply_codes () =
  Alcotest.(check bool) "ok reply" true (Vmsg.succeeded (Vmsg.ok ()));
  Alcotest.(check bool) "failure reply" false
    (Vmsg.succeeded (Vmsg.reply Reply.Not_found));
  Alcotest.(check bool) "requests are not successful replies" false
    (Vmsg.succeeded (Vmsg.request Vmsg.Op.query_name));
  Alcotest.(check bool) "reply code surfaces" true
    (Vmsg.reply_code (Vmsg.reply Reply.Bad_context) = Some Reply.Bad_context)

let test_vmsg_csname_range () =
  Alcotest.(check bool) "open is a csname op" true
    (Vmsg.Op.is_csname_request Vmsg.Op.open_instance);
  Alcotest.(check bool) "load_file is a csname op" true
    (Vmsg.Op.is_csname_request Vmsg.Op.load_file);
  Alcotest.(check bool) "read is not" false
    (Vmsg.Op.is_csname_request Vmsg.Op.read_instance);
  Alcotest.(check bool) "inverse map is not" false
    (Vmsg.Op.is_csname_request Vmsg.Op.inverse_map_context)

let test_with_name_preserves_rest () =
  let req = Csname.make_req "x/y" in
  let m =
    Vmsg.request ~name:req ~payload:(Vmsg.P_open { mode = Vmsg.Read })
      Vmsg.Op.open_instance
  in
  let req' = { req with Csname.index = 2; context = 42 } in
  let m' = Vmsg.with_name m req' in
  Alcotest.(check int) "code kept" m.Vmsg.code m'.Vmsg.code;
  Alcotest.(check bool) "payload kept untouched" true (m'.Vmsg.payload == m.Vmsg.payload);
  match m'.Vmsg.name with
  | Some r ->
      Alcotest.(check int) "index rewritten" 2 r.Csname.index;
      Alcotest.(check int) "context rewritten" 42 r.Csname.context
  | None -> Alcotest.fail "name lost"

(* The in-place walk against the list-based walk it replaced
   (test/naming_model.ml): random names with empty, leading, trailing
   and doubled separators, ']' inside components, NUL bytes and
   '[prefix]' syntax, started at random indexes (mid-name, at the end,
   out of range) in valid and invalid contexts. The lookup answers from
   a hash of (seed, context, component); both walks must ask it the
   same (context, component) questions in the same order — each one is
   a CPU charge in the server loop — and reach the same outcome. *)
let prop_walk_matches_model =
  let token =
    QCheck.Gen.oneofl
      [ "a"; "bc"; "dir"; "/"; "/"; "//"; "]"; "x]y"; "\000"; "["; "[p]" ]
  in
  let gen =
    QCheck.Gen.(
      let* tokens = list_size (int_bound 10) token in
      let name = String.concat "" tokens in
      let len = String.length name in
      let* index =
        oneof
          [
            return 0; return (len / 2); return len; int_bound len;
            return (-1); return (len + 1);
          ]
      in
      let* context = int_bound 5 in
      let* valid = int_bound 63 in
      let* seed = int_bound 1_000_000 in
      let* trace = int_bound 3 in
      return (name, index, context, valid, seed, trace))
  in
  let print (name, index, context, valid, seed, trace) =
    Fmt.str "name %S index %d context %d valid %d seed %d trace %d" name index
      context valid seed trace
  in
  QCheck.Test.make ~name:"in-place walk equals the list-based model"
    ~count:2000 (QCheck.make ~print gen)
    (fun (name, index, context, valid, seed, trace) ->
      let trace = { Vobs.Span.trace; parent = 1; sent_at = 2.5 } in
      let req = { (Csname.make_req ~index ~context name) with Csname.trace } in
      let valid_context ctx = valid land (1 lsl ctx) <> 0 in
      let lookup log ctx component =
        log := (ctx, component) :: !log;
        let h = Hashtbl.hash (seed, ctx, component) in
        match h mod 6 with
        | 0 | 1 | 2 | 3 -> Csnh.Descend (h / 6 mod 6)
        | 4 ->
            Csnh.Cross
              (Context.spec
                 ~server:(Pid.make ~logical_host:1 ~local_pid:(1 + (h mod 3)))
                 ~context:(h mod 7))
        | _ -> Csnh.Stop
      in
      let log = ref [] and model_log = ref [] in
      let outcome = Csnh.walk ~valid_context ~lookup:(lookup log) req in
      let expected =
        Naming_model.walk ~valid_context ~lookup:(lookup model_log) req
      in
      if outcome <> expected then QCheck.Test.fail_report "outcomes differ"
      else if !log <> !model_log then
        QCheck.Test.fail_report "lookup sequences differ"
      else true)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "naming.csname",
      [
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "remaining" `Quick test_remaining;
        Alcotest.test_case "parse prefix" `Quick test_parse_prefix;
        Alcotest.test_case "advance" `Quick test_advance_past;
        Alcotest.test_case "advance mismatch" `Quick test_advance_mismatch;
        qcheck prop_advance_consumes_all;
        qcheck prop_components_roundtrip;
      ] );
    ( "naming.reply",
      [
        Alcotest.test_case "roundtrip" `Quick test_reply_roundtrip;
        Alcotest.test_case "unknown" `Quick test_reply_unknown;
      ] );
    ( "naming.descriptor",
      [
        qcheck prop_descriptor_roundtrip;
        qcheck prop_directory_roundtrip;
        Alcotest.test_case "malformed" `Quick test_descriptor_malformed;
        Alcotest.test_case "too long" `Quick test_descriptor_too_long;
        Alcotest.test_case "modification limits" `Quick test_modification_limits;
      ] );
    ( "naming.walk",
      [
        Alcotest.test_case "to leaf" `Quick test_walk_to_leaf;
        Alcotest.test_case "to context" `Quick test_walk_to_context;
        Alcotest.test_case "empty name" `Quick test_walk_empty_name;
        Alcotest.test_case "forwards" `Quick test_walk_forwards;
        Alcotest.test_case "stops at non-context" `Quick
          test_walk_forward_consumes_only_prefix;
        Alcotest.test_case "bad context" `Quick test_walk_bad_context;
        Alcotest.test_case "rejects prefix" `Quick test_walk_rejects_prefix;
        Alcotest.test_case "rejects NUL" `Quick test_walk_rejects_nul;
        qcheck prop_walk_matches_model;
      ] );
    ( "naming.instances",
      [
        Alcotest.test_case "lifecycle" `Quick test_instance_server_lifecycle;
        Alcotest.test_case "ids not reused" `Quick
          test_instance_server_ids_not_reused;
        Alcotest.test_case "handle_io" `Quick test_instance_server_handle_io;
      ] );
    ( "naming.vmsg",
      [
        Alcotest.test_case "wire sizes" `Quick test_vmsg_sizes;
        qcheck prop_payload_bytes;
        Alcotest.test_case "reply codes" `Quick test_vmsg_reply_codes;
        Alcotest.test_case "csname op range" `Quick test_vmsg_csname_range;
        Alcotest.test_case "with_name preserves rest" `Quick
          test_with_name_preserves_rest;
      ] );
  ]
