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
   name). Since every payload pays its wire bytes, a message carrying
   data (the setup writes), a name or a description record (QueryName,
   ModifyName) pays for it, so every later reply arrives later, and
   with it the timestamps inside the records; no reply changed. *)

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
    "printer | setup write: OK count=9 @6.898";
    "printer | setup release: OK @9.458";
    "printer | setup open \"report.txt\" write: OK instance=2 size=0 block=512 @13.065";
    "printer | setup write: OK count=11 @16.314";
    "printer | setup release: OK @18.874";
    "printer | open \"\" read: OK instance=3 size=111 block=512 @21.674";
    "printer | open \"\" write: OK instance=4 size=111 block=512 @24.474";
    "printer | open \"\" append: OK instance=5 size=111 block=512 @27.274";
    "printer | open \"\" dir: OK instance=6 size=111 block=512 @30.074";
    "printer | map \"\": OK spec=(2.32271, ctx 0) @32.874";
    "printer | query \"\": OK directory \"[queue]\" size=2 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @36.433";
    "printer | create \"\": bad operation @39.233";
    "printer | remove \"\": bad operation @42.033";
    "printer | modify \"\": bad operation @45.607";
    "printer | query \"report.txt\": OK printer-job \"report.txt\" size=11 owner=\"system\" created=11.785 modified=0.000 writable=true instance=- attrs=[state=queued] @50.021";
    "printer | map \"report.txt\": bad operation @53.627";
    "printer | open \"report.txt\" read: no permission @57.234";
    "printer | open \"report.txt\" dir: no permission @60.841";
    "printer | open \"report.txt\" write: duplicate name @64.447";
    "printer | open \"report.txt\" append: duplicate name @68.054";
    "printer | modify \"report.txt\": bad operation @71.802";
    "printer | create \"report.txt\": bad operation @75.409";
    "printer | remove \"report.txt\": OK @79.015";
    "printer | query \"report.txt\": not found @82.622";
    "printer | query \"memo.txt\": not found @86.223";
    "printer | map \"memo.txt\": bad operation @89.825";
    "printer | open \"memo.txt\" read: no permission @93.426";
    "printer | open \"memo.txt\" dir: no permission @97.027";
    "printer | create \"memo.txt\": bad operation @100.629";
    "printer | query \"memo.txt\": not found @104.230";
    "printer | remove \"memo.txt\": not found @107.831";
    "printer | open \"memo.txt\" write: OK instance=7 size=0 block=512 @111.433";
    "printer | query \"memo.txt\": OK printer-job \"memo.txt\" size=0 owner=\"system\" created=110.153 modified=0.000 writable=true instance=- attrs=[state=spooling] @115.841";
    "printer | remove \"memo.txt\": no permission @119.442";
    "printer | query \"report.txt/inner\": not found @123.065";
    "printer | open \"report.txt/inner\" read: not found @126.687";
    "terminal | setup open \"console\" write: OK instance=2 size=0 block=512 @127.817";
    "terminal | setup write: OK count=11 @128.587";
    "terminal | setup release: OK @129.357";
    "terminal | open \"\" read: OK instance=3 size=37 block=512 @130.367";
    "terminal | open \"\" write: OK instance=4 size=37 block=512 @131.377";
    "terminal | open \"\" append: OK instance=5 size=37 block=512 @132.387";
    "terminal | open \"\" dir: OK instance=6 size=37 block=512 @133.397";
    "terminal | map \"\": OK spec=(5.15448, ctx 0) @134.407";
    "terminal | query \"\": OK directory \"[terminals]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @135.417";
    "terminal | create \"\": bad operation @136.427";
    "terminal | remove \"\": bad operation @137.437";
    "terminal | modify \"\": bad operation @138.447";
    "terminal | query \"console\": OK terminal \"console\" size=1 owner=\"system\" created=127.432 modified=139.192 writable=true instance=1 attrs=[] @139.577";
    "terminal | map \"console\": bad operation @140.707";
    "terminal | open \"console\" read: OK instance=7 size=12 block=512 @141.837";
    "terminal | open \"console\" dir: OK instance=8 size=12 block=512 @142.967";
    "terminal | open \"console\" write: OK instance=9 size=12 block=512 @144.097";
    "terminal | open \"console\" append: OK instance=10 size=12 block=512 @145.227";
    "terminal | modify \"console\": bad operation @146.357";
    "terminal | create \"console\": duplicate name @147.487";
    "terminal | remove \"console\": OK @148.617";
    "terminal | query \"console\": not found @149.747";
    "terminal | query \"tty9\": not found @150.877";
    "terminal | map \"tty9\": bad operation @152.007";
    "terminal | open \"tty9\" read: not found @153.137";
    "terminal | open \"tty9\" dir: not found @154.267";
    "terminal | create \"tty9\": OK @155.397";
    "terminal | query \"tty9\": OK terminal \"tty9\" size=0 owner=\"system\" created=155.012 modified=156.142 writable=true instance=11 attrs=[] @156.527";
    "terminal | remove \"tty9\": OK @157.657";
    "terminal | open \"tty9\" write: OK instance=13 size=0 block=512 @158.787";
    "terminal | query \"tty9\": OK terminal \"tty9\" size=0 owner=\"system\" created=158.402 modified=159.532 writable=true instance=12 attrs=[] @159.917";
    "terminal | remove \"tty9\": OK @161.047";
    "terminal | query \"console/inner\": not found @162.177";
    "terminal | open \"console/inner\" read: not found @163.307";
    "vgts | setup create \"editor\": OK @164.437";
    "vgts | open \"\" read: OK instance=2 size=61 block=512 @165.447";
    "vgts | open \"\" write: OK instance=3 size=61 block=512 @166.457";
    "vgts | open \"\" append: OK instance=4 size=61 block=512 @167.467";
    "vgts | open \"\" dir: OK instance=5 size=61 block=512 @168.477";
    "vgts | map \"\": OK spec=(5.32533, ctx 0) @169.487";
    "vgts | query \"\": OK directory \"[windows]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @170.497";
    "vgts | create \"\": bad operation @171.507";
    "vgts | remove \"\": bad operation @172.517";
    "vgts | modify \"\": bad operation @173.527";
    "vgts | query \"editor\": OK device \"editor\" size=0 owner=\"system\" created=164.052 modified=0.000 writable=true instance=1 attrs=[x=2;y=1;w=28;h=7] @174.657";
    "vgts | map \"editor\": bad operation @175.787";
    "vgts | open \"editor\" read: OK instance=6 size=0 block=512 @176.917";
    "vgts | open \"editor\" dir: OK instance=7 size=0 block=512 @178.047";
    "vgts | open \"editor\" write: OK instance=8 size=0 block=512 @179.177";
    "vgts | open \"editor\" append: OK instance=9 size=0 block=512 @180.307";
    "vgts | modify \"editor\": OK @181.437";
    "vgts | create \"editor\": duplicate name @182.567";
    "vgts | remove \"editor\": OK @183.697";
    "vgts | query \"editor\": not found @184.827";
    "vgts | query \"clock\": not found @185.957";
    "vgts | map \"clock\": bad operation @187.087";
    "vgts | open \"clock\" read: not found @188.217";
    "vgts | open \"clock\" dir: not found @189.347";
    "vgts | create \"clock\": OK @190.477";
    "vgts | query \"clock\": OK device \"clock\" size=0 owner=\"system\" created=190.092 modified=0.000 writable=true instance=10 attrs=[x=2;y=1;w=28;h=7] @191.607";
    "vgts | remove \"clock\": OK @192.737";
    "vgts | open \"clock\" write: OK instance=12 size=0 block=512 @193.867";
    "vgts | query \"clock\": OK device \"clock\" size=0 owner=\"system\" created=193.482 modified=0.000 writable=true instance=11 attrs=[x=2;y=1;w=28;h=7] @194.997";
    "vgts | remove \"clock\": OK @196.127";
    "vgts | query \"editor/inner\": not found @197.257";
    "vgts | open \"editor/inner\" read: not found @198.387";
    "internet | setup open \"score:23\" write: OK instance=2 size=0 block=512 @201.989";
    "internet | setup write: OK count=5 @205.222";
    "internet | setup release: OK @207.782";
    "internet | open \"\" read: OK instance=3 size=55 block=512 @210.582";
    "internet | open \"\" write: OK instance=4 size=55 block=512 @213.382";
    "internet | open \"\" append: OK instance=5 size=55 block=512 @216.182";
    "internet | open \"\" dir: OK instance=6 size=55 block=512 @218.982";
    "internet | map \"\": OK spec=(4.42473, ctx 0) @221.782";
    "internet | query \"\": OK directory \"[internet]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @225.349";
    "internet | create \"\": bad operation @228.149";
    "internet | remove \"\": bad operation @230.949";
    "internet | modify \"\": bad operation @234.523";
    "internet | query \"score:23\": OK tcp-connection \"score:23\" size=5 owner=\"system\" created=200.709 modified=0.000 writable=true instance=1 attrs=[state=syn-sent] @238.931";
    "internet | map \"score:23\": bad operation @242.533";
    "internet | open \"score:23\" read: OK instance=7 size=0 block=512 @246.134";
    "internet | open \"score:23\" dir: bad operation @249.735";
    "internet | open \"score:23\" write: OK instance=8 size=0 block=512 @253.337";
    "internet | open \"score:23\" append: OK instance=9 size=0 block=512 @256.938";
    "internet | modify \"score:23\": bad operation @260.675";
    "internet | create \"score:23\": bad operation @264.277";
    "internet | remove \"score:23\": OK @267.878";
    "internet | query \"score:23\": not found @271.479";
    "internet | query \"sumex:25\": not found @275.081";
    "internet | map \"sumex:25\": bad operation @278.682";
    "internet | open \"sumex:25\" read: not found @282.283";
    "internet | open \"sumex:25\" dir: bad operation @285.885";
    "internet | create \"sumex:25\": bad operation @289.486";
    "internet | query \"sumex:25\": not found @293.087";
    "internet | remove \"sumex:25\": not found @296.689";
    "internet | open \"sumex:25\" write: OK instance=11 size=0 block=512 @300.290";
    "internet | query \"sumex:25\": OK tcp-connection \"sumex:25\" size=0 owner=\"system\" created=299.010 modified=0.000 writable=true instance=10 attrs=[state=syn-sent] @304.698";
    "internet | remove \"sumex:25\": OK @308.299";
    "internet | query \"score:23/inner\": not found @311.917";
    "internet | open \"score:23/inner\" read: not found @315.534";
    "internet | query \"score\": illegal name @319.127";
    "internet | open \"score\" read: illegal name @322.721";
    "internet | open \"score\" write: illegal name @326.314";
    "internet | remove \"score\": illegal name @329.907";
    "exceptions | open \"\" read: OK instance=1 size=63 block=512 @331.737";
    "exceptions | open \"\" write: OK instance=2 size=63 block=512 @332.747";
    "exceptions | open \"\" append: OK instance=3 size=63 block=512 @333.757";
    "exceptions | open \"\" dir: OK instance=4 size=63 block=512 @334.767";
    "exceptions | map \"\": OK spec=(5.23466, ctx 0) @335.777";
    "exceptions | query \"\": OK directory \"[exceptions]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @336.787";
    "exceptions | create \"\": bad operation @337.797";
    "exceptions | remove \"\": bad operation @338.807";
    "exceptions | modify \"\": bad operation @339.817";
    "exceptions | query \"5.57378\": OK process \"5.57378\" size=0 owner=\"system\" created=330.342 modified=0.000 writable=true instance=- attrs=[exception=fault at 4096] @340.947";
    "exceptions | map \"5.57378\": bad operation @342.077";
    "exceptions | open \"5.57378\" read: bad operation @343.207";
    "exceptions | open \"5.57378\" dir: bad operation @344.337";
    "exceptions | open \"5.57378\" write: bad operation @345.467";
    "exceptions | open \"5.57378\" append: bad operation @346.597";
    "exceptions | modify \"5.57378\": bad operation @347.727";
    "exceptions | create \"5.57378\": bad operation @348.857";
    "exceptions | remove \"5.57378\": bad operation @349.987";
    "exceptions | query \"5.57378\": OK process \"5.57378\" size=0 owner=\"system\" created=330.342 modified=0.000 writable=true instance=- attrs=[exception=fault at 4096] @351.117";
    "exceptions | query \"nobody\": not found @352.247";
    "exceptions | map \"nobody\": bad operation @353.377";
    "exceptions | open \"nobody\" read: bad operation @354.507";
    "exceptions | open \"nobody\" dir: bad operation @355.637";
    "exceptions | create \"nobody\": bad operation @356.767";
    "exceptions | query \"nobody\": not found @357.897";
    "exceptions | remove \"nobody\": bad operation @359.027";
    "exceptions | open \"nobody\" write: bad operation @360.157";
    "exceptions | query \"nobody\": not found @361.287";
    "exceptions | remove \"nobody\": bad operation @362.417";
    "exceptions | query \"5.57378/inner\": not found @363.547";
    "exceptions | open \"5.57378/inner\" read: not found @364.677";
    "programs | open \"\" read: OK instance=1 size=66 block=512 @381.473";
    "programs | open \"\" write: OK instance=2 size=66 block=512 @382.483";
    "programs | open \"\" append: OK instance=3 size=66 block=512 @383.493";
    "programs | open \"\" dir: OK instance=4 size=66 block=512 @384.503";
    "programs | map \"\": OK spec=(5.42829, ctx 0) @385.513";
    "programs | query \"\": OK directory \"[programs]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @386.523";
    "programs | create \"\": bad operation @387.533";
    "programs | remove \"\": bad operation @388.543";
    "programs | modify \"\": bad operation @389.553";
    "programs | query \"hello\": OK process \"hello\" size=0 owner=\"system\" created=380.463 modified=380.463 writable=true instance=1 attrs=[argument=x;status=exited 0] @390.683";
    "programs | map \"hello\": bad operation @391.813";
    "programs | open \"hello\" read: bad operation @392.943";
    "programs | open \"hello\" dir: bad operation @394.073";
    "programs | open \"hello\" write: bad operation @395.203";
    "programs | open \"hello\" append: bad operation @396.333";
    "programs | modify \"hello\": bad operation @397.463";
    "programs | create \"hello\": bad operation @398.593";
    "programs | remove \"hello\": bad operation @399.723";
    "programs | query \"hello\": OK process \"hello\" size=0 owner=\"system\" created=380.463 modified=380.463 writable=true instance=1 attrs=[argument=x;status=exited 0] @400.853";
    "programs | query \"format\": not found @401.983";
    "programs | map \"format\": bad operation @403.113";
    "programs | open \"format\" read: bad operation @404.243";
    "programs | open \"format\" dir: bad operation @405.373";
    "programs | create \"format\": bad operation @406.503";
    "programs | query \"format\": not found @407.633";
    "programs | remove \"format\": bad operation @408.763";
    "programs | open \"format\" write: bad operation @409.893";
    "programs | query \"format\": not found @411.023";
    "programs | remove \"format\": bad operation @412.153";
    "programs | query \"hello/inner\": not found @413.283";
    "programs | open \"hello/inner\" read: not found @414.413";
    "mail | setup open \"cheriton@su-score\" append: OK instance=1 size=0 block=2048 @417.919";
    "mail | setup write: OK count=16 @421.181";
    "mail | setup release: OK @423.741";
    "mail | open \"\" read: OK instance=2 size=47 block=2048 @426.541";
    "mail | open \"\" write: OK instance=3 size=47 block=2048 @429.341";
    "mail | open \"\" append: OK instance=4 size=47 block=2048 @432.141";
    "mail | open \"\" dir: OK instance=5 size=47 block=2048 @434.941";
    "mail | map \"\": OK spec=(3.42542, ctx 0) @437.741";
    "mail | query \"\": OK directory \"[mail]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @441.297";
    "mail | create \"\": bad operation @444.097";
    "mail | remove \"\": bad operation @446.897";
    "mail | modify \"\": bad operation @450.472";
    "mail | query \"cheriton@su-score\": OK mailbox \"cheriton@su-score\" size=1 owner=\"system\" created=416.639 modified=0.000 writable=true instance=- attrs=[] @454.763";
    "mail | map \"cheriton@su-score\": bad operation @458.268";
    "mail | open \"cheriton@su-score\" read: OK instance=6 size=28 block=2048 @461.773";
    "mail | open \"cheriton@su-score\" dir: not a context @465.279";
    "mail | open \"cheriton@su-score\" write: OK instance=7 size=0 block=2048 @468.784";
    "mail | open \"cheriton@su-score\" append: OK instance=8 size=0 block=2048 @472.289";
    "mail | modify \"cheriton@su-score\": bad operation @475.955";
    "mail | create \"cheriton@su-score\": bad operation @479.460";
    "mail | remove \"cheriton@su-score\": OK @482.965";
    "mail | query \"cheriton@su-score\": not found @486.471";
    "mail | query \"mann@diablo\": not found @489.960";
    "mail | map \"mann@diablo\": bad operation @493.449";
    "mail | open \"mann@diablo\" read: not found @496.939";
    "mail | open \"mann@diablo\" dir: not a context @500.428";
    "mail | create \"mann@diablo\": bad operation @503.917";
    "mail | query \"mann@diablo\": not found @507.407";
    "mail | remove \"mann@diablo\": not found @510.896";
    "mail | open \"mann@diablo\" write: OK instance=9 size=0 block=2048 @514.385";
    "mail | query \"mann@diablo\": OK mailbox \"mann@diablo\" size=0 owner=\"system\" created=513.105 modified=0.000 writable=true instance=- attrs=[] @518.644";
    "mail | remove \"mann@diablo\": OK @522.133";
    "mail | query \"cheriton@su-score/inner\": illegal name @525.655";
    "mail | open \"cheriton@su-score/inner\" read: illegal name @529.176";
    "mail | query \"cheriton\": illegal name @532.657";
    "mail | open \"cheriton\" read: illegal name @536.139";
    "mail | open \"cheriton\" write: illegal name @539.620";
    "mail | remove \"cheriton\": illegal name @543.101";
    "accounts | open \"\" read: OK instance=1 size=57 block=512 @545.901";
    "accounts | open \"\" write: OK instance=2 size=57 block=512 @548.701";
    "accounts | open \"\" append: OK instance=3 size=57 block=512 @551.501";
    "accounts | open \"\" dir: OK instance=4 size=57 block=512 @554.301";
    "accounts | map \"\": OK spec=(1.6203, ctx 4) @557.101";
    "accounts | query \"\": OK directory \"[accounts]\" size=1 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @560.668";
    "accounts | create \"\": bad operation @563.468";
    "accounts | remove \"\": bad operation @566.268";
    "accounts | modify \"\": bad operation @569.843";
    "accounts | query \"system\": OK account \"system\" size=0 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[home=/users/system] @574.251";
    "accounts | map \"system\": OK spec=(1.6203, ctx 20) @577.847";
    "accounts | open \"system\" read: bad operation @581.443";
    "accounts | open \"system\" dir: bad operation @585.039";
    "accounts | open \"system\" write: bad operation @588.635";
    "accounts | open \"system\" append: bad operation @592.231";
    "accounts | modify \"system\": bad operation @595.957";
    "accounts | create \"system\": duplicate name @599.553";
    "accounts | remove \"system\": no permission @603.149";
    "accounts | query \"system\": OK account \"system\" size=0 owner=\"system\" created=0.000 modified=0.000 writable=true instance=- attrs=[home=/users/system] @607.557";
    "accounts | query \"mann\": not found @611.148";
    "accounts | map \"mann\": not found @614.739";
    "accounts | open \"mann\" read: bad operation @618.329";
    "accounts | open \"mann\" dir: bad operation @621.920";
    "accounts | create \"mann\": OK @625.511";
    "accounts | query \"mann\": OK account \"mann\" size=0 owner=\"mann\" created=624.231 modified=0.000 writable=true instance=- attrs=[home=/users/mann] @629.897";
    "accounts | remove \"mann\": OK @633.488";
    "accounts | open \"mann\" write: bad operation @637.079";
    "accounts | query \"mann\": not found @640.669";
    "accounts | remove \"mann\": not found @644.260";
    "accounts | query \"system/inner\": not found @647.872";
    "accounts | open \"system/inner\" read: not found @651.484";
    "prefix | open \"\" read: OK instance=1 size=645 block=512 @652.614";
    "prefix | open \"\" write: OK instance=2 size=645 block=512 @653.744";
    "prefix | open \"\" append: OK instance=3 size=645 block=512 @654.874";
    "prefix | open \"\" dir: OK instance=4 size=645 block=512 @656.004";
    "prefix | map \"\": OK spec=(5.13436, ctx 0) @657.134";
    "prefix | query \"\": OK directory \"[prefixes]\" size=10 owner=\"ws0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @658.264";
    "prefix | create \"\": bad operation @659.394";
    "prefix | remove \"\": bad operation @660.524";
    "prefix | modify \"\": bad operation @661.654";
    "prefix | add \"\": bad operation @662.784";
    "prefix | delete \"\": bad operation @663.914";
    "prefix | query \"fs0\": OK prefix \"fs0\" size=12 owner=\"ws0\" created=664.659 modified=664.659 writable=true instance=- attrs=[target=(1.6203, ctx 0)] @665.044";
    "prefix | map \"fs0\": OK spec=(1.6203, ctx 0) @666.174";
    "prefix | open \"fs0\" read: not a context @667.304";
    "prefix | open \"fs0\" dir: not a context @668.434";
    "prefix | open \"fs0\" write: not a context @669.564";
    "prefix | open \"fs0\" append: not a context @670.694";
    "prefix | modify \"fs0\": not a context @671.824";
    "prefix | create \"fs0\": not a context @672.954";
    "prefix | remove \"fs0\": not a context @674.084";
    "prefix | query \"fs0\": OK prefix \"fs0\" size=12 owner=\"ws0\" created=674.829 modified=674.829 writable=true instance=- attrs=[target=(1.6203, ctx 0)] @675.214";
    "prefix | query \"nothing\": not found @676.344";
    "prefix | map \"nothing\": not found @677.474";
    "prefix | open \"nothing\" read: not found @678.604";
    "prefix | open \"nothing\" dir: not found @679.734";
    "prefix | create \"nothing\": not found @680.864";
    "prefix | query \"nothing\": not found @681.994";
    "prefix | remove \"nothing\": not found @683.124";
    "prefix | open \"nothing\" write: not found @684.254";
    "prefix | query \"nothing\": not found @685.384";
    "prefix | remove \"nothing\": not found @686.514";
    "prefix | query \"fs0/inner\": not found @690.863";
    "prefix | open \"fs0/inner\" read: not found @695.212";
    "prefix | add \"nothing/inner\": not found @696.342";
    "prefix | delete \"nothing/inner\": not found @697.472";
    "prefix | add \"nothing\": OK @698.602";
    "prefix | query \"nothing\": OK prefix \"nothing\" size=16 owner=\"ws0\" created=699.347 modified=699.347 writable=true instance=- attrs=[target=(1.6203, ctx 0)] @699.732";
    "prefix | add \"nothing\": duplicate name @700.862";
    "prefix | delete \"nothing\": OK @701.992";
    "prefix | delete \"nothing\": not found @703.122";
    "domain | open \"\" read: OK instance=1 size=97 block=512 @705.922";
    "domain | open \"\" write: OK instance=2 size=97 block=512 @708.722";
    "domain | open \"\" append: OK instance=3 size=97 block=512 @711.522";
    "domain | open \"\" dir: OK instance=4 size=97 block=512 @714.322";
    "domain | map \"\": OK spec=(6.63095, ctx 0) @717.122";
    "domain | query \"\": OK directory \"domain:dom0\" size=3 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @720.686";
    "domain | create \"\": bad operation @723.486";
    "domain | remove \"\": bad operation @726.286";
    "domain | modify \"\": bad operation @729.861";
    "domain | add \"\": bad operation @732.661";
    "domain | delete \"\": bad operation @735.461";
    "domain | query \"files\": OK directory \"files\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @739.802";
    "domain | map \"files\": OK spec=(1.6203, ctx 17) bound=5:(1.6203, ctx 0) @745.589";
    "domain | open \"files\" read: OK instance=5 size=101 block=512 bound=5:(1.6203, ctx 0) @751.435";
    "domain | open \"files\" dir: OK instance=6 size=101 block=512 bound=5:(1.6203, ctx 0) @757.282";
    "domain | query \"sub\": OK directory \"sub\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @761.613";
    "domain | map \"sub\": OK spec=(6.63095, ctx 7) bound=3:(6.63095, ctx 7) @765.201";
    "domain | open \"sub\" read: OK instance=5 size=0 block=512 bound=3:(6.63095, ctx 7) @768.789";
    "domain | open \"sub\" dir: OK instance=6 size=0 block=512 bound=3:(6.63095, ctx 7) @772.377";
    "domain | query \"child\": OK directory \"child\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @776.718";
    "domain | map \"child\": OK spec=(7.12362, ctx 0) bound=5:(7.12362, ctx 0) @782.505";
    "domain | open \"child\" read: OK instance=1 size=0 block=512 bound=5:(7.12362, ctx 0) @788.291";
    "domain | open \"child\" dir: OK instance=2 size=0 block=512 bound=5:(7.12362, ctx 0) @794.078";
    "domain | open \"files\" write: OK instance=7 size=101 block=512 bound=5:(1.6203, ctx 0) @799.925";
    "domain | open \"files\" append: OK instance=8 size=101 block=512 bound=5:(1.6203, ctx 0) @805.771";
    "domain | modify \"files\": bad operation @809.493";
    "domain | create \"files\": duplicate name @815.279";
    "domain | remove \"files\": bad operation @818.873";
    "domain | query \"files\": OK directory \"files\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @823.214";
    "domain | query \"nothing\": not found @826.813";
    "domain | map \"nothing\": not found @830.411";
    "domain | open \"nothing\" read: bad operation @834.010";
    "domain | open \"nothing\" dir: bad operation @837.609";
    "domain | create \"nothing\": bad operation @841.207";
    "domain | query \"nothing\": not found @844.806";
    "domain | remove \"nothing\": bad operation @848.405";
    "domain | open \"nothing\" write: bad operation @852.003";
    "domain | query \"nothing\": not found @855.602";
    "domain | remove \"nothing\": bad operation @859.201";
    "domain | query \"files/inner\": not found @865.139";
    "domain | open \"files/inner\" read: not found @871.078";
    "domain | add \"nothing/inner\": not found @874.693";
    "domain | delete \"nothing/inner\": not found @878.307";
    "domain | add \"nothing\": OK @881.906";
    "domain | query \"nothing\": OK directory \"nothing\" size=0 owner=\"dom0\" created=0.000 modified=0.000 writable=true instance=- attrs=[] @886.258";
    "domain | add \"nothing\": duplicate name @889.857";
    "domain | delete \"nothing\": OK @893.455";
    "domain | delete \"nothing\": not found @897.054";
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
