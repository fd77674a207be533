(* Every flat context's naming replies, pinned.

   A flat context is one context whose every object is named by a
   single component (§2.2): the printer, terminal, VGTS, internet,
   exception, program-manager and mail servers' contexts, and the file
   server's accounts context. The prefix server's own context (its
   bindings) and a domain server's contexts are pinned beside them.
   [drive] boots the standard installation, puts objects in each
   context, and sends each server raw CSname requests, one at a time,
   so each line is exactly one reply: its code, its payload (the full
   descriptor for a query), its binding stamp and the simulated time
   it arrived.

   Each context is asked, on the context itself (the empty name), to
   Open in every mode, MapContext, QueryName, Create, Remove and
   ModifyName; on an existing name and on a missing one, to QueryName,
   MapContext, Open, Create and Remove; and to QueryName and Open a
   two-component name and, where the server has a name syntax, an
   ill-formed name. The prefix and domain servers, which hold context
   names, are also asked to AddContextName and DeleteContextName the
   context itself, a missing name and a two-component name. [golden]
   is what each server's own naming code answered before the flat
   contexts shared one handler ({!Csnh.flat}), but for three replies
   the shared handler changed on purpose: QueryName on the context
   returns its directory record at every server (the printer, internet,
   exception, program-manager and mail servers refused it); a name of
   two or more components is not found at the exception server and the
   program manager (they refused it); and QueryName on one name at the
   exception server describes the report of that name, or finds none
   (it was refused). The prefix server's and the domain server's
   contexts joined the shared handler later, and four more replies
   changed on purpose then: Open on either server's context opens its
   listing in every mode (the prefix server opened one only for a
   directory listing, the domain server never); the domain server's
   DeleteContextName on the context itself is a bad operation, and its
   AddContextName on a two-component name is not found, as at every flat
   context; and the file server refuses to remove the owner's own
   account, whose home is the well-known home context. Later still, an
   operation on a name itself (Remove, Rename, AddContextName,
   DeleteContextName, QueryName, ModifyName) came to be answered by the
   context that binds the name, and these replies changed on purpose:
   the domain server's QueryName on an entry answers the record its
   listing holds (the target context answered with its own record), its
   Remove of a leaf binding is a bad operation (the file server refused
   to remove its root), and its second AddContextName and its
   DeleteContextName of a leaf binding are its own duplicate name and OK
   (the target answered); the prefix server's AddContextName and
   DeleteContextName pay the common charge like its other requests, so
   they and every later prefix reply arrive 0.36 ms later each, on the
   context itself they are a bad operation (an illegal name and not
   found before), and a two-component add is not found (an illegal
   name). *)

module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Ctx = Vnaming.Context
module Csname = Vnaming.Csname
module Descriptor = Vnaming.Descriptor
module Reply = Vnaming.Reply
module Vmsg = Vnaming.Vmsg
open Vservices

let render_descriptor (d : Descriptor.t) =
  Fmt.str
    "%s %S size=%d owner=%S created=%.3f modified=%.3f writable=%b \
     instance=%s attrs=[%s]"
    (Descriptor.obj_type_to_string d.obj_type)
    d.name d.size d.owner d.created d.modified d.writable
    (match d.instance with Some i -> string_of_int i | None -> "-")
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) d.attrs))

let render (m : Vmsg.t) =
  let code =
    match Vmsg.reply_code m with
    | Some c -> Reply.to_string c
    | None -> "not a reply"
  in
  let payload =
    match m.Vmsg.payload with
    | Vmsg.P_instance i ->
        Fmt.str " instance=%d size=%d block=%d" i.instance i.file_size
          i.block_size
    | Vmsg.P_count n -> Fmt.str " count=%d" n
    | Vmsg.P_descriptor d -> " " ^ render_descriptor d
    | Vmsg.P_context_spec s -> Fmt.str " spec=%a" Ctx.pp_spec s
    | Vmsg.No_payload -> ""
    | _ -> " (other payload)"
  in
  let binding =
    match m.Vmsg.binding with
    | Some b -> Fmt.str " bound=%d:%a" b.Vmsg.upto Ctx.pp_spec b.Vmsg.spec
    | None -> ""
  in
  Fmt.str "%s%s%s" code payload binding

let mode_name = function
  | Vmsg.Read -> "read"
  | Vmsg.Write -> "write"
  | Vmsg.Append -> "append"
  | Vmsg.Directory_listing -> "dir"

let modes = [ Vmsg.Read; Vmsg.Write; Vmsg.Append; Vmsg.Directory_listing ]

let drive () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let fs0 = Scenario.file_server t 0 in
  (match
     Program_manager.install_image fs0 ~name:"hello" ~image:(Bytes.make 64 'p')
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "install hello: %s" (Reply.to_string code));
  let ws = Scenario.workstation t 0 in
  let lines = ref [] in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"naming" (fun self env ->
         let eng = Runtime.engine env in
         let send label what pid msg =
           match K.send self pid msg with
           | Error e -> Alcotest.failf "%s %s: %a" label what K.pp_error e
           | Ok (reply, _) ->
               lines :=
                 Fmt.str "%s | %s: %s @%.3f" label what (render reply)
                   (Vsim.Engine.now eng)
                 :: !lines;
               reply
         in
         (* One context's battery: [label]'s server [pid], its context
            [context], an existing name and a missing one, and an
            ill-formed name where the server has a syntax. *)
         let battery ?(context = Ctx.Well_known.default) ?ill_formed
             ?(others = []) ?bind label pid ~existing ~missing =
           let named ?payload code name =
             Vmsg.request ~name:(Csname.make_req ~context name) ?payload code
           in
           let op what code name =
             ignore (send label (Fmt.str "%s %S" what name) pid (named code name))
           in
           let open_ name mode =
             ignore
               (send label
                  (Fmt.str "open %S %s" name (mode_name mode))
                  pid
                  (named ~payload:(Vmsg.P_open { mode }) Vmsg.Op.open_instance
                     name))
           in
           let create name =
             ignore
               (send label (Fmt.str "create %S" name) pid
                  (named
                     ~payload:(Vmsg.P_create { directory = false })
                     Vmsg.Op.create_object name))
           in
           let modify name =
             ignore
               (send label (Fmt.str "modify %S" name) pid
                  (named
                     ~payload:
                       (Vmsg.P_descriptor
                          (Descriptor.make ~obj_type:Descriptor.Device
                             ~attrs:[ ("x", "5"); ("w", "30") ]
                             name))
                     Vmsg.Op.modify_name name))
           in
           (* [bind]: a context name, added as one. *)
           let add_name name =
             Option.iter
               (fun spec ->
                 ignore
                   (send label (Fmt.str "add %S" name) pid
                      (named ~payload:(Vmsg.P_context_spec spec)
                         Vmsg.Op.add_context_name name)))
               bind
           in
           let delete_name name =
             if Option.is_some bind then
               op "delete" Vmsg.Op.delete_context_name name
           in
           (* The context itself. *)
           List.iter (open_ "") modes;
           op "map" Vmsg.Op.map_context "";
           op "query" Vmsg.Op.query_name "";
           create "";
           op "remove" Vmsg.Op.remove_object "";
           modify "";
           add_name "";
           delete_name "";
           (* One existing name, then one missing name. *)
           let one name =
             op "query" Vmsg.Op.query_name name;
             op "map" Vmsg.Op.map_context name;
             List.iter (open_ name) [ Vmsg.Read; Vmsg.Directory_listing ]
           in
           one existing;
           List.iter one others;
           List.iter (open_ existing) [ Vmsg.Write; Vmsg.Append ];
           modify existing;
           create existing;
           op "remove" Vmsg.Op.remove_object existing;
           op "query" Vmsg.Op.query_name existing;
           one missing;
           create missing;
           op "query" Vmsg.Op.query_name missing;
           op "remove" Vmsg.Op.remove_object missing;
           (* Where a writing Open creates the object, it is there to
              remove afterwards. *)
           open_ missing Vmsg.Write;
           op "query" Vmsg.Op.query_name missing;
           op "remove" Vmsg.Op.remove_object missing;
           (* Other names. *)
           let deep = existing ^ "/inner" in
           op "query" Vmsg.Op.query_name deep;
           open_ deep Vmsg.Read;
           Option.iter
             (fun name ->
               op "query" Vmsg.Op.query_name name;
               open_ name Vmsg.Read;
               open_ name Vmsg.Write;
               op "remove" Vmsg.Op.remove_object name)
             ill_formed;
           (* Context names: a two-component name under the missing
              one; then the missing one added, queried, added again and
              deleted twice. *)
           if Option.is_some bind then begin
             add_name (missing ^ "/inner");
             delete_name (missing ^ "/inner");
             add_name missing;
             op "query" Vmsg.Op.query_name missing;
             add_name missing;
             delete_name missing;
             delete_name missing
           end
         in
         let write_session label pid name mode texts =
           let r =
             send label
               (Fmt.str "setup open %S %s" name (mode_name mode))
               pid
               (Vmsg.request
                  ~name:(Csname.make_req name)
                  ~payload:(Vmsg.P_open { mode }) Vmsg.Op.open_instance)
           in
           match r.Vmsg.payload with
           | Vmsg.P_instance i ->
               let instance = i.Vmsg.instance in
               List.iter
                 (fun text ->
                   ignore
                     (send label "setup write" pid
                        (Vmsg.request
                           ~payload:
                             (Vmsg.P_write
                                { instance; block = 0; data = Bytes.of_string text })
                           Vmsg.Op.write_instance)))
                 texts;
               ignore
                 (send label "setup release" pid
                    (Vmsg.request ~payload:(Vmsg.P_instance_arg instance)
                       Vmsg.Op.release_instance))
           | _ -> ()
         in
         (* --- the printer server: one job printing, one queued --- *)
         let label = "printer" and pid = Printer_server.pid t.Scenario.printer in
         write_session label pid "first.txt" Vmsg.Write [ "page one\n" ];
         write_session label pid "report.txt" Vmsg.Write [ "the report\n" ];
         battery label pid ~existing:"report.txt" ~missing:"memo.txt";
         (* --- the terminal server --- *)
         let label = "terminal"
         and pid = Terminal_server.pid ws.Scenario.ws_terminal in
         write_session label pid "console" Vmsg.Write [ "login: mann" ];
         battery label pid ~existing:"console" ~missing:"tty9";
         (* --- the VGTS --- *)
         let label = "vgts" and pid = Vgts.pid ws.Scenario.ws_vgts in
         (* An empty window: an Open reply's size is the I/O tests' to
            pin, not this one's. *)
         ignore
           (send label "setup create \"editor\"" pid
              (Vmsg.request ~name:(Csname.make_req "editor")
                 Vmsg.Op.create_object));
         battery label pid ~existing:"editor" ~missing:"clock";
         (* --- the internet server --- *)
         let label = "internet"
         and pid = Internet_server.pid t.Scenario.internet in
         write_session label pid "score:23" Vmsg.Write [ "hello" ];
         battery label pid ~existing:"score:23" ~missing:"sumex:25"
           ~ill_formed:"score";
         (* --- the exception server --- *)
         Exception_server.report self ~culprit:(K.self_pid self) "fault at 4096";
         let label = "exceptions"
         and pid = Exception_server.pid ws.Scenario.ws_exceptions in
         battery label pid
           ~existing:(Vkernel.Pid.to_string (K.self_pid self))
           ~missing:"nobody";
         (* --- the program manager --- *)
         let pm = ws.Scenario.ws_programs in
         (match
            Program_manager.run_program pm self ~program:"hello" ~argument:"x"
          with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "run hello: %a" Vio.Verr.pp e);
         let label = "programs" and pid = Program_manager.pid pm in
         battery label pid ~existing:"hello" ~missing:"format";
         (* --- the mail server --- *)
         let label = "mail" and pid = Mail_server.pid t.Scenario.mail in
         write_session label pid "cheriton@su-score" Vmsg.Append
           [ "From: mann\nhello" ];
         battery label pid ~existing:"cheriton@su-score" ~missing:"mann@diablo"
           ~ill_formed:"cheriton";
         (* --- the file server's accounts context --- *)
         let label = "accounts" and pid = File_server.pid fs0 in
         battery ~context:Ctx.Well_known.accounts label pid ~existing:"system"
           ~missing:"mann";
         (* --- the prefix server's own context: its bindings --- *)
         let fs_root = File_server.spec fs0 ~context:Ctx.Well_known.default in
         let label = "prefix"
         and pid = Vnaming.Prefix_server.pid ws.Scenario.ws_prefix in
         battery ~bind:fs_root label pid ~existing:"fs0" ~missing:"nothing";
         (* --- a domain server: a sub-context, a child domain and a leaf
            binding into the file server --- *)
         let domain_server name addr =
           Vdomains.Domain_server.start
             (K.boot_host t.Scenario.domain ~name addr)
             ~name ()
         in
         let dom0 = domain_server "dom0" 50 and dom1 = domain_server "dom1" 51 in
         let entry name e =
           match Vdomains.Domain_server.set_entry dom0 name e with
           | Ok () -> ()
           | Error code -> Alcotest.failf "entry %s: %s" name (Reply.to_string code)
         in
         entry "sub" (Vdomains.Domain_server.Subcontext 7);
         entry "child"
           (Vdomains.Domain_server.Child (Vdomains.Domain_server.spec dom1 ()));
         entry "files" (Vdomains.Domain_server.Bound fs_root);
         let label = "domain" and pid = Vdomains.Domain_server.pid dom0 in
         battery ~bind:fs_root ~others:[ "sub"; "child" ] label pid
           ~existing:"files" ~missing:"nothing";
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed;
  List.rev !lines

let lines = lazy (drive ())

let golden =
  [
    "printer | setup open \"first.txt\" write: OK instance=1 size=0 block=512 @3.654";
    "printer | setup write: OK count=9 @6.214";
    "printer | setup release: OK @8.774";
    "printer | setup open \"report.txt\" write: OK instance=2 size=0 block=512 @12.381";
    "printer | setup write: OK count=11 @14.941";
    "printer | setup release: OK @17.501";
    "printer | open \"\" read: OK instance=3 size=111 block=512 @20.301";
    "printer | open \"\" write: OK instance=4 size=111 block=512 @23.101";
    "printer | open \"\" append: OK instance=5 size=111 block=512 @25.901";
    "printer | open \"\" dir: OK instance=6 size=111 block=512 @28.701";
    "printer | map \"\": OK spec=(2.32271, ctx 0) @31.501";
    "printer | query \"\": OK directory \"[queue]\" size=2 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @34.301";
    "printer | create \"\": bad operation @37.101";
    "printer | remove \"\": bad operation @39.901";
    "printer | modify \"\": bad operation @42.701";
    "printer | query \"report.txt\": OK printer-job \"report.txt\" size=11 owner=\"system\" created=11.101 modified=0.000 writable=true instance=- attrs=[state=queued] @46.307";
    "printer | map \"report.txt\": bad operation @49.914";
    "printer | open \"report.txt\" read: no permission @53.521";
    "printer | open \"report.txt\" dir: no permission @57.127";
    "printer | open \"report.txt\" write: duplicate name @60.734";
    "printer | open \"report.txt\" append: duplicate name @64.341";
    "printer | modify \"report.txt\": bad operation @67.947";
    "printer | create \"report.txt\": bad operation @71.554";
    "printer | remove \"report.txt\": OK @75.161";
    "printer | query \"report.txt\": not found @78.767";
    "printer | query \"memo.txt\": not found @82.369";
    "printer | map \"memo.txt\": bad operation @85.970";
    "printer | open \"memo.txt\" read: no permission @89.571";
    "printer | open \"memo.txt\" dir: no permission @93.173";
    "printer | create \"memo.txt\": bad operation @96.774";
    "printer | query \"memo.txt\": not found @100.375";
    "printer | remove \"memo.txt\": not found @103.977";
    "printer | open \"memo.txt\" write: OK instance=7 size=0 block=512 @107.578";
    "printer | query \"memo.txt\": OK printer-job \"memo.txt\" size=0 owner=\"system\" created=106.298 modified=0.000 writable=true instance=- attrs=[state=spooling] @111.179";
    "printer | remove \"memo.txt\": no permission @114.781";
    "printer | query \"report.txt/inner\": not found @118.403";
    "printer | open \"report.txt/inner\" read: not found @122.026";
    "terminal | setup open \"console\" write: OK instance=2 size=0 block=512 @123.156";
    "terminal | setup write: OK count=11 @123.926";
    "terminal | setup release: OK @124.696";
    "terminal | open \"\" read: OK instance=3 size=37 block=512 @125.706";
    "terminal | open \"\" write: OK instance=4 size=37 block=512 @126.716";
    "terminal | open \"\" append: OK instance=5 size=37 block=512 @127.726";
    "terminal | open \"\" dir: OK instance=6 size=37 block=512 @128.736";
    "terminal | map \"\": OK spec=(5.15448, ctx 0) @129.746";
    "terminal | query \"\": OK directory \"[terminals]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @130.756";
    "terminal | create \"\": bad operation @131.766";
    "terminal | remove \"\": bad operation @132.776";
    "terminal | modify \"\": bad operation @133.786";
    "terminal | query \"console\": OK terminal \"console\" size=1 owner=\"system\" created=122.771 modified=134.531 writable=true instance=1 attrs=[] @134.916";
    "terminal | map \"console\": bad operation @136.046";
    "terminal | open \"console\" read: OK instance=7 size=12 block=512 @137.176";
    "terminal | open \"console\" dir: OK instance=8 size=12 block=512 @138.306";
    "terminal | open \"console\" write: OK instance=9 size=12 block=512 @139.436";
    "terminal | open \"console\" append: OK instance=10 size=12 block=512 @140.566";
    "terminal | modify \"console\": bad operation @141.696";
    "terminal | create \"console\": duplicate name @142.826";
    "terminal | remove \"console\": OK @143.956";
    "terminal | query \"console\": not found @145.086";
    "terminal | query \"tty9\": not found @146.216";
    "terminal | map \"tty9\": bad operation @147.346";
    "terminal | open \"tty9\" read: not found @148.476";
    "terminal | open \"tty9\" dir: not found @149.606";
    "terminal | create \"tty9\": OK @150.736";
    "terminal | query \"tty9\": OK terminal \"tty9\" size=0 owner=\"system\" created=150.351 modified=151.481 writable=true instance=11 attrs=[] @151.866";
    "terminal | remove \"tty9\": OK @152.996";
    "terminal | open \"tty9\" write: OK instance=13 size=0 block=512 @154.126";
    "terminal | query \"tty9\": OK terminal \"tty9\" size=0 owner=\"system\" created=153.741 modified=154.871 writable=true instance=12 attrs=[] @155.256";
    "terminal | remove \"tty9\": OK @156.386";
    "terminal | query \"console/inner\": not found @157.516";
    "terminal | open \"console/inner\" read: not found @158.646";
    "vgts | setup create \"editor\": OK @159.776";
    "vgts | open \"\" read: OK instance=2 size=61 block=512 @160.786";
    "vgts | open \"\" write: OK instance=3 size=61 block=512 @161.796";
    "vgts | open \"\" append: OK instance=4 size=61 block=512 @162.806";
    "vgts | open \"\" dir: OK instance=5 size=61 block=512 @163.816";
    "vgts | map \"\": OK spec=(5.32533, ctx 0) @164.826";
    "vgts | query \"\": OK directory \"[windows]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @165.836";
    "vgts | create \"\": bad operation @166.846";
    "vgts | remove \"\": bad operation @167.856";
    "vgts | modify \"\": bad operation @168.866";
    "vgts | query \"editor\": OK device \"editor\" size=0 owner=\"system\" created=159.391 modified=0.000 writable=true instance=1 attrs=[x=2;y=1;w=28;h=7] @169.996";
    "vgts | map \"editor\": bad operation @171.126";
    "vgts | open \"editor\" read: OK instance=6 size=0 block=512 @172.256";
    "vgts | open \"editor\" dir: OK instance=7 size=0 block=512 @173.386";
    "vgts | open \"editor\" write: OK instance=8 size=0 block=512 @174.516";
    "vgts | open \"editor\" append: OK instance=9 size=0 block=512 @175.646";
    "vgts | modify \"editor\": OK @176.776";
    "vgts | create \"editor\": duplicate name @177.906";
    "vgts | remove \"editor\": OK @179.036";
    "vgts | query \"editor\": not found @180.166";
    "vgts | query \"clock\": not found @181.296";
    "vgts | map \"clock\": bad operation @182.426";
    "vgts | open \"clock\" read: not found @183.556";
    "vgts | open \"clock\" dir: not found @184.686";
    "vgts | create \"clock\": OK @185.816";
    "vgts | query \"clock\": OK device \"clock\" size=0 owner=\"system\" created=185.431 modified=0.000 writable=true instance=10 attrs=[x=2;y=1;w=28;h=7] @186.946";
    "vgts | remove \"clock\": OK @188.076";
    "vgts | open \"clock\" write: OK instance=12 size=0 block=512 @189.206";
    "vgts | query \"clock\": OK device \"clock\" size=0 owner=\"system\" created=188.821 modified=0.000 writable=true instance=11 attrs=[x=2;y=1;w=28;h=7] @190.336";
    "vgts | remove \"clock\": OK @191.466";
    "vgts | query \"editor/inner\": not found @192.596";
    "vgts | open \"editor/inner\" read: not found @193.726";
    "internet | setup open \"score:23\" write: OK instance=2 size=0 block=512 @197.327";
    "internet | setup write: OK count=5 @199.887";
    "internet | setup release: OK @202.447";
    "internet | open \"\" read: OK instance=3 size=55 block=512 @205.247";
    "internet | open \"\" write: OK instance=4 size=55 block=512 @208.047";
    "internet | open \"\" append: OK instance=5 size=55 block=512 @210.847";
    "internet | open \"\" dir: OK instance=6 size=55 block=512 @213.647";
    "internet | map \"\": OK spec=(4.42473, ctx 0) @216.447";
    "internet | query \"\": OK directory \"[internet]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @219.247";
    "internet | create \"\": bad operation @222.047";
    "internet | remove \"\": bad operation @224.847";
    "internet | modify \"\": bad operation @227.647";
    "internet | query \"score:23\": OK tcp-connection \"score:23\" size=5 owner=\"system\" created=196.047 modified=0.000 writable=true instance=1 attrs=[state=syn-sent] @231.249";
    "internet | map \"score:23\": bad operation @234.850";
    "internet | open \"score:23\" read: OK instance=7 size=0 block=512 @238.451";
    "internet | open \"score:23\" dir: bad operation @242.053";
    "internet | open \"score:23\" write: OK instance=8 size=0 block=512 @245.654";
    "internet | open \"score:23\" append: OK instance=9 size=0 block=512 @249.255";
    "internet | modify \"score:23\": bad operation @252.857";
    "internet | create \"score:23\": bad operation @256.458";
    "internet | remove \"score:23\": OK @260.059";
    "internet | query \"score:23\": not found @263.661";
    "internet | query \"sumex:25\": not found @267.262";
    "internet | map \"sumex:25\": bad operation @270.863";
    "internet | open \"sumex:25\" read: not found @274.465";
    "internet | open \"sumex:25\" dir: bad operation @278.066";
    "internet | create \"sumex:25\": bad operation @281.667";
    "internet | query \"sumex:25\": not found @285.269";
    "internet | remove \"sumex:25\": not found @288.870";
    "internet | open \"sumex:25\" write: OK instance=11 size=0 block=512 @292.471";
    "internet | query \"sumex:25\": OK tcp-connection \"sumex:25\" size=0 owner=\"system\" created=291.191 modified=0.000 writable=true instance=10 attrs=[state=syn-sent] @296.073";
    "internet | remove \"sumex:25\": OK @299.674";
    "internet | query \"score:23/inner\": not found @303.291";
    "internet | open \"score:23/inner\" read: not found @306.909";
    "internet | query \"score\": illegal name @310.502";
    "internet | open \"score\" read: illegal name @314.095";
    "internet | open \"score\" write: illegal name @317.689";
    "internet | remove \"score\": illegal name @321.282";
    "exceptions | open \"\" read: OK instance=1 size=63 block=512 @323.112";
    "exceptions | open \"\" write: OK instance=2 size=63 block=512 @324.122";
    "exceptions | open \"\" append: OK instance=3 size=63 block=512 @325.132";
    "exceptions | open \"\" dir: OK instance=4 size=63 block=512 @326.142";
    "exceptions | map \"\": OK spec=(5.23466, ctx 0) @327.152";
    "exceptions | query \"\": OK directory \"[exceptions]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @328.162";
    "exceptions | create \"\": bad operation @329.172";
    "exceptions | remove \"\": bad operation @330.182";
    "exceptions | modify \"\": bad operation @331.192";
    "exceptions | query \"5.57378\": OK process \"5.57378\" size=0 owner=\"system\" created=321.717 modified=0.000 writable=true instance=- attrs=[exception=fault at 4096] @332.322";
    "exceptions | map \"5.57378\": bad operation @333.452";
    "exceptions | open \"5.57378\" read: bad operation @334.582";
    "exceptions | open \"5.57378\" dir: bad operation @335.712";
    "exceptions | open \"5.57378\" write: bad operation @336.842";
    "exceptions | open \"5.57378\" append: bad operation @337.972";
    "exceptions | modify \"5.57378\": bad operation @339.102";
    "exceptions | create \"5.57378\": bad operation @340.232";
    "exceptions | remove \"5.57378\": bad operation @341.362";
    "exceptions | query \"5.57378\": OK process \"5.57378\" size=0 owner=\"system\" created=321.717 modified=0.000 writable=true instance=- attrs=[exception=fault at 4096] @342.492";
    "exceptions | query \"nobody\": not found @343.622";
    "exceptions | map \"nobody\": bad operation @344.752";
    "exceptions | open \"nobody\" read: bad operation @345.882";
    "exceptions | open \"nobody\" dir: bad operation @347.012";
    "exceptions | create \"nobody\": bad operation @348.142";
    "exceptions | query \"nobody\": not found @349.272";
    "exceptions | remove \"nobody\": bad operation @350.402";
    "exceptions | open \"nobody\" write: bad operation @351.532";
    "exceptions | query \"nobody\": not found @352.662";
    "exceptions | remove \"nobody\": bad operation @353.792";
    "exceptions | query \"5.57378/inner\": not found @354.922";
    "exceptions | open \"5.57378/inner\" read: not found @356.052";
    "programs | open \"\" read: OK instance=1 size=66 block=512 @372.095";
    "programs | open \"\" write: OK instance=2 size=66 block=512 @373.105";
    "programs | open \"\" append: OK instance=3 size=66 block=512 @374.115";
    "programs | open \"\" dir: OK instance=4 size=66 block=512 @375.125";
    "programs | map \"\": OK spec=(5.42829, ctx 0) @376.135";
    "programs | query \"\": OK directory \"[programs]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @377.145";
    "programs | create \"\": bad operation @378.155";
    "programs | remove \"\": bad operation @379.165";
    "programs | modify \"\": bad operation @380.175";
    "programs | query \"hello\": OK process \"hello\" size=0 owner=\"system\" created=371.085 modified=371.085 writable=true instance=1 attrs=[argument=x;status=exited 0] @381.305";
    "programs | map \"hello\": bad operation @382.435";
    "programs | open \"hello\" read: bad operation @383.565";
    "programs | open \"hello\" dir: bad operation @384.695";
    "programs | open \"hello\" write: bad operation @385.825";
    "programs | open \"hello\" append: bad operation @386.955";
    "programs | modify \"hello\": bad operation @388.085";
    "programs | create \"hello\": bad operation @389.215";
    "programs | remove \"hello\": bad operation @390.345";
    "programs | query \"hello\": OK process \"hello\" size=0 owner=\"system\" created=371.085 modified=371.085 writable=true instance=1 attrs=[argument=x;status=exited 0] @391.475";
    "programs | query \"format\": not found @392.605";
    "programs | map \"format\": bad operation @393.735";
    "programs | open \"format\" read: bad operation @394.865";
    "programs | open \"format\" dir: bad operation @395.995";
    "programs | create \"format\": bad operation @397.125";
    "programs | query \"format\": not found @398.255";
    "programs | remove \"format\": bad operation @399.385";
    "programs | open \"format\" write: bad operation @400.515";
    "programs | query \"format\": not found @401.645";
    "programs | remove \"format\": bad operation @402.775";
    "programs | query \"hello/inner\": not found @403.905";
    "programs | open \"hello/inner\" read: not found @405.035";
    "mail | setup open \"cheriton@su-score\" append: OK instance=1 size=0 block=2048 @408.540";
    "mail | setup write: OK count=16 @411.100";
    "mail | setup release: OK @413.660";
    "mail | open \"\" read: OK instance=2 size=47 block=2048 @416.460";
    "mail | open \"\" write: OK instance=3 size=47 block=2048 @419.260";
    "mail | open \"\" append: OK instance=4 size=47 block=2048 @422.060";
    "mail | open \"\" dir: OK instance=5 size=47 block=2048 @424.860";
    "mail | map \"\": OK spec=(3.42542, ctx 0) @427.660";
    "mail | query \"\": OK directory \"[mail]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @430.460";
    "mail | create \"\": bad operation @433.260";
    "mail | remove \"\": bad operation @436.060";
    "mail | modify \"\": bad operation @438.860";
    "mail | query \"cheriton@su-score\": OK mailbox \"cheriton@su-score\" size=1 owner=\"system\" created=407.260 modified=0.000 writable=true instance=- attrs=[] @442.365";
    "mail | map \"cheriton@su-score\": bad operation @445.871";
    "mail | open \"cheriton@su-score\" read: OK instance=6 size=28 block=2048 @449.376";
    "mail | open \"cheriton@su-score\" dir: not a context @452.881";
    "mail | open \"cheriton@su-score\" write: OK instance=7 size=0 block=2048 @456.387";
    "mail | open \"cheriton@su-score\" append: OK instance=8 size=0 block=2048 @459.892";
    "mail | modify \"cheriton@su-score\": bad operation @463.397";
    "mail | create \"cheriton@su-score\": bad operation @466.903";
    "mail | remove \"cheriton@su-score\": OK @470.408";
    "mail | query \"cheriton@su-score\": not found @473.913";
    "mail | query \"mann@diablo\": not found @477.403";
    "mail | map \"mann@diablo\": bad operation @480.892";
    "mail | open \"mann@diablo\" read: not found @484.381";
    "mail | open \"mann@diablo\" dir: not a context @487.871";
    "mail | create \"mann@diablo\": bad operation @491.360";
    "mail | query \"mann@diablo\": not found @494.849";
    "mail | remove \"mann@diablo\": not found @498.339";
    "mail | open \"mann@diablo\" write: OK instance=9 size=0 block=2048 @501.828";
    "mail | query \"mann@diablo\": OK mailbox \"mann@diablo\" size=0 owner=\"system\" created=500.548 modified=0.000 writable=true instance=- attrs=[] @505.317";
    "mail | remove \"mann@diablo\": OK @508.807";
    "mail | query \"cheriton@su-score/inner\": illegal name @512.328";
    "mail | open \"cheriton@su-score/inner\" read: illegal name @515.849";
    "mail | query \"cheriton\": illegal name @519.331";
    "mail | open \"cheriton\" read: illegal name @522.812";
    "mail | open \"cheriton\" write: illegal name @526.293";
    "mail | remove \"cheriton\": illegal name @529.775";
    "accounts | open \"\" read: OK instance=1 size=57 block=512 @532.575";
    "accounts | open \"\" write: OK instance=2 size=57 block=512 @535.375";
    "accounts | open \"\" append: OK instance=3 size=57 block=512 @538.175";
    "accounts | open \"\" dir: OK instance=4 size=57 block=512 @540.975";
    "accounts | map \"\": OK spec=(1.6203, ctx 4) @543.775";
    "accounts | query \"\": OK directory \"[accounts]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @546.575";
    "accounts | create \"\": bad operation @549.375";
    "accounts | remove \"\": bad operation @552.175";
    "accounts | modify \"\": bad operation @554.975";
    "accounts | query \"system\": OK account \"system\" size=0 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[home=/users/system] @558.571";
    "accounts | map \"system\": OK spec=(1.6203, ctx 20) @562.167";
    "accounts | open \"system\" read: bad operation @565.763";
    "accounts | open \"system\" dir: bad operation @569.359";
    "accounts | open \"system\" write: bad operation @572.955";
    "accounts | open \"system\" append: bad operation @576.551";
    "accounts | modify \"system\": bad operation @580.147";
    "accounts | create \"system\": duplicate name @583.743";
    "accounts | remove \"system\": no permission @587.339";
    "accounts | query \"system\": OK account \"system\" size=0 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[home=/users/system] @590.935";
    "accounts | query \"mann\": not found @594.525";
    "accounts | map \"mann\": not found @598.116";
    "accounts | open \"mann\" read: bad operation @601.707";
    "accounts | open \"mann\" dir: bad operation @605.297";
    "accounts | create \"mann\": OK @608.888";
    "accounts | query \"mann\": OK account \"mann\" size=0 owner=\"mann\" created=607.608 modified=0.000 writable=true instance=- attrs=[home=/users/mann] @612.479";
    "accounts | remove \"mann\": OK @616.069";
    "accounts | open \"mann\" write: bad operation @619.660";
    "accounts | query \"mann\": not found @623.251";
    "accounts | remove \"mann\": not found @626.841";
    "accounts | query \"system/inner\": not found @630.453";
    "accounts | open \"system/inner\" read: not found @634.065";
    "prefix | open \"\" read: OK instance=1 size=645 block=512 @635.195";
    "prefix | open \"\" write: OK instance=2 size=645 block=512 @636.325";
    "prefix | open \"\" append: OK instance=3 size=645 block=512 @637.455";
    "prefix | open \"\" dir: OK instance=4 size=645 block=512 @638.585";
    "prefix | map \"\": OK spec=(5.13436, ctx 0) @639.715";
    "prefix | query \"\": OK directory \"[prefixes]\" size=10 owner=\"ws0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @640.845";
    "prefix | create \"\": bad operation @641.975";
    "prefix | remove \"\": bad operation @643.105";
    "prefix | modify \"\": bad operation @644.235";
    "prefix | add \"\": bad operation @645.365";
    "prefix | delete \"\": bad operation @646.495";
    "prefix | query \"fs0\": OK prefix \"fs0\" size=12 owner=\"ws0\" created=647.240 modified=647.240 writable=true instance=- attrs=[target=(1.6203, ctx 0)] @647.625";
    "prefix | map \"fs0\": OK spec=(1.6203, ctx 0) @648.755";
    "prefix | open \"fs0\" read: not a context @649.885";
    "prefix | open \"fs0\" dir: not a context @651.015";
    "prefix | open \"fs0\" write: not a context @652.145";
    "prefix | open \"fs0\" append: not a context @653.275";
    "prefix | modify \"fs0\": not a context @654.405";
    "prefix | create \"fs0\": not a context @655.535";
    "prefix | remove \"fs0\": not a context @656.665";
    "prefix | query \"fs0\": OK prefix \"fs0\" size=12 owner=\"ws0\" created=657.410 modified=657.410 writable=true instance=- attrs=[target=(1.6203, ctx 0)] @657.795";
    "prefix | query \"nothing\": not found @658.925";
    "prefix | map \"nothing\": not found @660.055";
    "prefix | open \"nothing\" read: not found @661.185";
    "prefix | open \"nothing\" dir: not found @662.315";
    "prefix | create \"nothing\": not found @663.445";
    "prefix | query \"nothing\": not found @664.575";
    "prefix | remove \"nothing\": not found @665.705";
    "prefix | open \"nothing\" write: not found @666.835";
    "prefix | query \"nothing\": not found @667.965";
    "prefix | remove \"nothing\": not found @669.095";
    "prefix | query \"fs0/inner\": not found @673.444";
    "prefix | open \"fs0/inner\" read: not found @677.793";
    "prefix | add \"nothing/inner\": not found @678.923";
    "prefix | delete \"nothing/inner\": not found @680.053";
    "prefix | add \"nothing\": OK @681.183";
    "prefix | query \"nothing\": OK prefix \"nothing\" size=16 owner=\"ws0\" created=681.928 modified=681.928 writable=true instance=- attrs=[target=(1.6203, ctx 0)] @682.313";
    "prefix | add \"nothing\": duplicate name @683.443";
    "prefix | delete \"nothing\": OK @684.573";
    "prefix | delete \"nothing\": not found @685.703";
    "domain | open \"\" read: OK instance=1 size=97 block=512 @688.503";
    "domain | open \"\" write: OK instance=2 size=97 block=512 @691.303";
    "domain | open \"\" append: OK instance=3 size=97 block=512 @694.103";
    "domain | open \"\" dir: OK instance=4 size=97 block=512 @696.903";
    "domain | map \"\": OK spec=(6.63095, ctx 0) @699.703";
    "domain | query \"\": OK directory \"domain:dom0\" size=3 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @702.503";
    "domain | create \"\": bad operation @705.303";
    "domain | remove \"\": bad operation @708.103";
    "domain | modify \"\": bad operation @710.903";
    "domain | add \"\": bad operation @713.703";
    "domain | delete \"\": bad operation @716.503";
    "domain | query \"files\": OK directory \"files\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @720.097";
    "domain | map \"files\": OK spec=(1.6203, ctx 17) bound=5:(1.6203, ctx 0) @725.883";
    "domain | open \"files\" read: OK instance=5 size=101 block=512 bound=5:(1.6203, ctx 0) @731.730";
    "domain | open \"files\" dir: OK instance=6 size=101 block=512 bound=5:(1.6203, ctx 0) @737.577";
    "domain | query \"sub\": OK directory \"sub\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @741.165";
    "domain | map \"sub\": OK spec=(6.63095, ctx 7) bound=3:(6.63095, ctx 7) @744.753";
    "domain | open \"sub\" read: OK instance=5 size=0 block=512 bound=3:(6.63095, ctx 7) @748.341";
    "domain | open \"sub\" dir: OK instance=6 size=0 block=512 bound=3:(6.63095, ctx 7) @751.929";
    "domain | query \"child\": OK directory \"child\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @755.522";
    "domain | map \"child\": OK spec=(7.12362, ctx 0) bound=5:(7.12362, ctx 0) @761.309";
    "domain | open \"child\" read: OK instance=1 size=0 block=512 bound=5:(7.12362, ctx 0) @767.095";
    "domain | open \"child\" dir: OK instance=2 size=0 block=512 bound=5:(7.12362, ctx 0) @772.882";
    "domain | open \"files\" write: OK instance=7 size=101 block=512 bound=5:(1.6203, ctx 0) @778.729";
    "domain | open \"files\" append: OK instance=8 size=101 block=512 bound=5:(1.6203, ctx 0) @784.575";
    "domain | modify \"files\": bad operation @788.169";
    "domain | create \"files\": duplicate name @793.955";
    "domain | remove \"files\": bad operation @797.549";
    "domain | query \"files\": OK directory \"files\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @801.142";
    "domain | query \"nothing\": not found @804.741";
    "domain | map \"nothing\": not found @808.339";
    "domain | open \"nothing\" read: bad operation @811.938";
    "domain | open \"nothing\" dir: bad operation @815.537";
    "domain | create \"nothing\": bad operation @819.135";
    "domain | query \"nothing\": not found @822.734";
    "domain | remove \"nothing\": bad operation @826.333";
    "domain | open \"nothing\" write: bad operation @829.931";
    "domain | query \"nothing\": not found @833.530";
    "domain | remove \"nothing\": bad operation @837.129";
    "domain | query \"files/inner\": not found @843.067";
    "domain | open \"files/inner\" read: not found @849.006";
    "domain | add \"nothing/inner\": not found @852.621";
    "domain | delete \"nothing/inner\": not found @856.235";
    "domain | add \"nothing\": OK @859.834";
    "domain | query \"nothing\": OK directory \"nothing\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @863.433";
    "domain | add \"nothing\": duplicate name @867.031";
    "domain | delete \"nothing\": OK @870.630";
    "domain | delete \"nothing\": not found @874.229";
  ]

let servers =
  [
    "printer";
    "terminal";
    "vgts";
    "internet";
    "exceptions";
    "programs";
    "mail";
    "accounts";
    "prefix";
    "domain";
  ]

let of_server label lines =
  let prefix = label ^ " | " in
  List.filter (String.starts_with ~prefix) lines

let test_server label () =
  Alcotest.(check (list string))
    (label ^ " replies") (of_server label golden)
    (of_server label (Lazy.force lines))

let suite =
  [
    ( "flat-naming",
      List.map
        (fun label -> Alcotest.test_case label `Quick (test_server label))
        servers );
  ]
