(* Every instance server's I/O-protocol replies, pinned.

   [drive] boots the standard installation and talks to the file,
   prefix, terminal, VGTS, program-manager, exception, printer, mail
   and internet servers directly, one raw request at a time, so each
   line is exactly one reply: its code, its payload (the full
   descriptor for a query), its wire bytes beyond the 32-byte message
   proper ({!Vnaming.Vmsg.payload_bytes}) and the simulated time it
   arrived. Each instance is read at block 0, at every further block
   and one block past the end, and at -1; written; read again; queried;
   then released twice and read, queried and written after the release.
   Every server is also asked to query and release an id no Open
   returned, and reports the ids its Opens returned, in order. The
   server-specific cases ride along: a read on a mail delivery session,
   a write to a closed connection, a printer write after the job is
   submitted, SetInstanceSize and InverseMapInstance on the file
   server. [golden] is what these replies were before the servers
   shared one instance table, but for what the table's own context
   listing changed later: QueryInstance on a listing answers one record
   at every server (a directory named for the context, with its owner,
   the image's byte size and the instance id), where the prefix,
   program-manager, exception, printer, mail and internet servers each
   answered their own; and a read-mode Open on the prefix server's
   context opens its listing (it was refused), so the directory-mode
   listing after it has the next id. Since every payload pays its wire
   bytes, the QueryInstance and InverseMap replies and this test's own
   WriteInstance requests pay for their records, names and data, so
   later replies arrive later, and so do the timestamps and delivery
   times inside the listings and mail bodies read back. *)

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
    | Vmsg.P_data d ->
        Fmt.str " data=%d:%s" (Bytes.length d)
          (String.sub (Digest.to_hex (Digest.bytes d)) 0 8)
    | Vmsg.P_count n -> Fmt.str " count=%d" n
    | Vmsg.P_descriptor d -> " " ^ render_descriptor d
    | Vmsg.P_name s -> Fmt.str " name=%S" s
    | Vmsg.P_context_spec s -> Fmt.str " spec=%a" Ctx.pp_spec s
    | Vmsg.No_payload -> ""
    | _ -> " (other payload)"
  in
  Fmt.str "%s%s bytes=%d" code payload (Vmsg.payload_bytes m)

let mode_name = function
  | Vmsg.Read -> "read"
  | Vmsg.Write -> "write"
  | Vmsg.Append -> "append"
  | Vmsg.Directory_listing -> "dir"

let never_opened = 999

(* [n] lines of [f i], for i = 0 .. n-1. *)
let lines_of n f = List.init n f

(* [cost] and [client_ws] let test_conformance.ml run the same scenario
   through its checking cost model, from a second workstation. *)
let drive ?cost ?(client_ws = 0) () =
  let t =
    Scenario.build ?cost ~workstations:(client_ws + 1) ~file_servers:1 ()
  in
  let fs0 = Scenario.file_server t 0 in
  let fs = File_server.fs fs0 in
  let file ~dir name size =
    match Fs.create_file fs ~dir ~owner:"system" name with
    | Error code -> Alcotest.failf "create %s: %s" name (Reply.to_string code)
    | Ok ino ->
        ignore
          (Fs.write_file fs ~ino
             (Bytes.init size (fun i -> Char.chr (97 + (i mod 26)))))
  in
  file ~dir:Fs.root_ino "big.txt" 1300;
  file ~dir:Fs.root_ino "log.txt" 700;
  file ~dir:Fs.root_ino "scratch.txt" 100;
  (match Fs.mkdir fs ~dir:Fs.root_ino ~owner:"system" "many" with
  | Ok dir ->
      List.iter
        (fun i -> file ~dir (Fmt.str "entry-%02d" i) (i * 10))
        (List.init 20 Fun.id)
  | Error _ -> Alcotest.fail "mkdir many");
  List.iter
    (fun name ->
      match
        Program_manager.install_image fs0 ~name ~image:(Bytes.make 64 'p')
      with
      | Ok () -> ()
      | Error code ->
          Alcotest.failf "install %s: %s" name (Reply.to_string code))
    [ "hello"; "format" ];
  let ws = Scenario.workstation t 0 in
  let lines = ref [] in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:client_ws ~name:"io" (fun self env ->
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
         let named ?(context = Ctx.Well_known.default) ?payload code name =
           Vmsg.request ~name:(Csname.make_req ~context name) ?payload code
         in
         let io ?payload code = Vmsg.request ?payload code in
         (* One server's session: its Opens' ids, in order. *)
         let server label pid =
           let ids = ref [] in
           let open_ ?context ~mode name =
             let r =
               send label
                 (Fmt.str "open %S %s" name (mode_name mode))
                 pid
                 (named ?context ~payload:(Vmsg.P_open { mode })
                    Vmsg.Op.open_instance name)
             in
             match r.Vmsg.payload with
             | Vmsg.P_instance i ->
                 ids := i.Vmsg.instance :: !ids;
                 Some i.Vmsg.instance
             | _ -> None
           in
           let read id block =
             send label
               (Fmt.str "read #%d block %d" id block)
               pid
               (io ~payload:(Vmsg.P_read { instance = id; block })
                  Vmsg.Op.read_instance)
           in
           (* Block 0 up to one block past the end (at most 8), then -1. *)
           let read_all id =
             let rec from block =
               if Vmsg.succeeded (read id block) && block < 8 then
                 from (block + 1)
             in
             from 0;
             ignore (read id (-1))
           in
           let write id data =
             let data = Bytes.of_string data in
             ignore
               (send label (Fmt.str "write #%d" id) pid
                  (io
                     ~payload:(Vmsg.P_write { instance = id; block = 0; data })
                     Vmsg.Op.write_instance))
           in
           let query id =
             ignore
               (send label (Fmt.str "query #%d" id) pid
                  (io ~payload:(Vmsg.P_instance_arg id)
                     Vmsg.Op.query_instance))
           in
           let release id =
             ignore
               (send label (Fmt.str "release #%d" id) pid
                  (io ~payload:(Vmsg.P_instance_arg id)
                     Vmsg.Op.release_instance))
           in
           let exercise id =
             read_all id;
             write id "one more line";
             ignore (read id 0);
             query id
           in
           let finish () =
             let opened = List.rev !ids in
             List.iter
               (fun id ->
                 release id;
                 release id;
                 ignore (read id 0);
                 query id;
                 write id "after release")
               opened;
             query never_opened;
             release never_opened;
             lines :=
               Fmt.str "%s | ids opened: %s" label
                 (String.concat " " (List.map string_of_int opened))
               :: !lines
           in
           (open_, read, write, query, release, exercise, finish)
         in
         let each f = function Some id -> f id | None -> () in
         let write_lines write texts =
           each (fun id -> List.iter (write id) texts)
         in
         let named_op label pid what code name =
           ignore (send label what pid (named code name))
         in
         (* --- the file server --- *)
         let label = "file" and pid = File_server.pid fs0 in
         let open_, _, write, _, release, exercise, finish = server label pid in
         let set_size id size =
           ignore
             (send label
                (Fmt.str "set-size #%d %d" id size)
                pid
                (io ~payload:(Vmsg.P_set_size { instance = id; size })
                   Vmsg.Op.set_instance_size))
         in
         let inverse id =
           ignore
             (send label
                (Fmt.str "inverse-map #%d" id)
                pid
                (io ~payload:(Vmsg.P_instance_arg id)
                   Vmsg.Op.inverse_map_instance))
         in
         let root = open_ ~mode:Vmsg.Directory_listing "" in
         let many = open_ ~mode:Vmsg.Directory_listing "many" in
         let accounts =
           open_ ~context:Ctx.Well_known.accounts ~mode:Vmsg.Directory_listing
             ""
         in
         let big = open_ ~mode:Vmsg.Read "big.txt" in
         let log = open_ ~mode:Vmsg.Append "log.txt" in
         let scratch = open_ ~mode:Vmsg.Write "scratch.txt" in
         (* Larger than a block. *)
         each (fun id -> write id (String.make 600 'w')) scratch;
         List.iter (each exercise) [ root; many; accounts; big; log; scratch ];
         List.iter (each (fun id -> set_size id 10)) [ root; big; log ];
         List.iter (each inverse) [ root; accounts; big; log ];
         inverse never_opened;
         each release big;
         each inverse big;
         finish ();
         (* --- the prefix server --- *)
         let label = "prefix"
         and pid = Vnaming.Prefix_server.pid ws.Scenario.ws_prefix in
         let open_, _, _, _, _, exercise, finish = server label pid in
         (* A read-mode Open opens the same listing as the directory-mode
            one: its reply is pinned, and the directory-mode listing is
            the one exercised and released. *)
         ignore
           (send label "open \"\" read" pid
              (named ~payload:(Vmsg.P_open { mode = Vmsg.Read })
                 Vmsg.Op.open_instance ""));
         each exercise (open_ ~mode:Vmsg.Directory_listing "");
         finish ();
         (* --- the terminal server --- *)
         let label = "terminal"
         and pid = Terminal_server.pid ws.Scenario.ws_terminal in
         let open_, _, write, _, _, exercise, finish = server label pid in
         named_op label pid "create console" Vmsg.Op.create_object "console";
         let w = open_ ~mode:Vmsg.Write "console" in
         write_lines write
           (lines_of 12 (fun i -> Fmt.str "%02d %s" i (String.make 60 'x')))
           w;
         let r = open_ ~mode:Vmsg.Read "console" in
         let dir = open_ ~mode:Vmsg.Directory_listing "" in
         named_op label pid "create tty2" Vmsg.Op.create_object "tty2";
         List.iter (each exercise) [ w; r; dir ];
         finish ();
         (* --- the VGTS --- *)
         let label = "vgts" and pid = Vgts.pid ws.Scenario.ws_vgts in
         let open_, _, write, _, _, exercise, finish = server label pid in
         named_op label pid "create editor" Vmsg.Op.create_object "editor";
         let w = open_ ~mode:Vmsg.Write "editor" in
         write_lines write
           (lines_of 12 (fun i ->
                Fmt.str "line %02d %s" i (String.make 50 'y')))
           w;
         let r = open_ ~mode:Vmsg.Read "editor" in
         let fresh = open_ ~mode:Vmsg.Append "mail-window" in
         let dir = open_ ~mode:Vmsg.Directory_listing "" in
         List.iter (each exercise) [ w; r; fresh; dir ];
         finish ();
         (* --- the program manager --- *)
         let pm = ws.Scenario.ws_programs in
         List.iteri
           (fun i program ->
             ignore
               (Program_manager.run_program pm self ~program
                  ~argument:(Fmt.str "run %d" i)))
           (List.concat (List.init 4 (fun _ -> [ "hello"; "format" ])));
         let label = "programs" and pid = Program_manager.pid pm in
         let open_, _, _, _, _, exercise, finish = server label pid in
         each exercise (open_ ~mode:Vmsg.Directory_listing "");
         finish ();
         (* --- the exception server --- *)
         List.iter
           (fun i ->
             Exception_server.report self ~culprit:(K.self_pid self)
               (Fmt.str "fault %02d at address %d" i (4096 * i)))
           (List.init 14 Fun.id);
         let label = "exceptions"
         and pid = Exception_server.pid ws.Scenario.ws_exceptions in
         let open_, _, _, _, _, exercise, finish = server label pid in
         each exercise (open_ ~mode:Vmsg.Directory_listing "");
         finish ();
         (* --- the printer server --- *)
         let label = "printer"
         and pid = Printer_server.pid t.Scenario.printer in
         let open_, _, write, _, release, exercise, finish = server label pid in
         ignore (open_ ~mode:Vmsg.Read "report.txt");
         let job = open_ ~mode:Vmsg.Write "report.txt" in
         write_lines write
           (lines_of 14 (fun i ->
                Fmt.str "page text %02d %s\n" i (String.make 40 'z')))
           job;
         let second = open_ ~mode:Vmsg.Write "memo.txt" in
         let dir = open_ ~mode:Vmsg.Directory_listing "" in
         List.iter (each exercise) [ job; second; dir ];
         (* Releasing the spool submits the job; a write after that. *)
         each release second;
         each (fun id -> write id "too late") second;
         finish ();
         (* --- the mail server --- *)
         let label = "mail" and pid = Mail_server.pid t.Scenario.mail in
         let open_, read, write, _, _, exercise, finish = server label pid in
         let deliver = open_ ~mode:Vmsg.Append "cheriton@su-score" in
         write_lines write
           (lines_of 22 (fun i ->
                Fmt.str "From: mann\nmessage %02d %s" i (String.make 90 'm')))
           deliver;
         (* A delivery session is write-only. *)
         each (fun id -> ignore (read id 0)) deliver;
         let fetch = open_ ~mode:Vmsg.Read "cheriton@su-score" in
         let dir = open_ ~mode:Vmsg.Directory_listing "" in
         List.iter (each exercise) [ deliver; fetch; dir ];
         finish ();
         (* --- the internet server --- *)
         let label = "internet"
         and pid = Internet_server.pid t.Scenario.internet in
         let open_, _, write, _, _, exercise, finish = server label pid in
         let conn = open_ ~mode:Vmsg.Write "score:23" in
         write_lines write
           (lines_of 9 (fun i -> Fmt.str "%02d %s" i (String.make 70 'n')))
           conn;
         (* Let the far end's echo arrive. *)
         Vsim.Proc.delay eng 200.0;
         let reader = open_ ~mode:Vmsg.Read "score:23" in
         let closing = open_ ~mode:Vmsg.Write "sumex:25" in
         let dir = open_ ~mode:Vmsg.Directory_listing "" in
         List.iter (each exercise) [ conn; reader; dir ];
         (* A connection removed by name is closed; its session stays. *)
         named_op label pid "remove sumex:25" Vmsg.Op.remove_object "sumex:25";
         each exercise closing;
         finish ();
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed;
  List.rev !lines

let lines = lazy (drive ())

let golden =
  [
    "file | open \"\" dir: OK instance=1 size=250 block=512 bytes=0 @2.990";
    "file | open \"many\" dir: OK instance=2 size=760 block=512 bytes=0 @6.981";
    "file | open \"\" dir: OK instance=3 size=57 block=512 bytes=0 @9.781";
    "file | open \"big.txt\" read: OK instance=4 size=1300 block=512 bytes=0 @13.379";
    "file | open \"log.txt\" append: OK instance=5 size=700 block=512 bytes=0 @16.978";
    "file | open \"scratch.txt\" write: OK instance=6 size=0 block=512 bytes=0 @20.587";
    "file | write #6: invalid instance bytes=0 @25.407";
    "file | read #1 block 0: OK data=250:6775ca33 bytes=250 @29.294";
    "file | read #1 block 1: end of file bytes=0 @31.854";
    "file | read #1 block -1: invalid instance bytes=0 @34.414";
    "file | write #1: no permission bytes=0 @37.669";
    "file | read #1 block 0: OK data=250:6775ca33 bytes=250 @41.555";
    "file | query #1: OK directory \"/\" size=250 owner=\"system\" created=0.000 modified=0.000 writable=true instance=1 attrs=[] bytes=31 @44.858";
    "file | read #2 block 0: OK data=512:a255cd98 bytes=512 @49.443";
    "file | read #2 block 1: OK data=248:392855a7 bytes=248 @53.325";
    "file | read #2 block 2: end of file bytes=0 @55.885";
    "file | read #2 block -1: invalid instance bytes=0 @58.445";
    "file | write #2: no permission bytes=0 @61.699";
    "file | read #2 block 0: OK data=512:a255cd98 bytes=512 @66.285";
    "file | query #2: OK directory \"/many\" size=760 owner=\"system\" created=0.000 modified=0.000 writable=true instance=2 attrs=[] bytes=35 @69.598";
    "file | read #3 block 0: OK data=57:6fa198b3 bytes=57 @72.970";
    "file | read #3 block 1: end of file bytes=0 @75.530";
    "file | read #3 block -1: invalid instance bytes=0 @78.090";
    "file | write #3: no permission bytes=0 @81.345";
    "file | read #3 block 0: OK data=57:6fa198b3 bytes=57 @84.717";
    "file | query #3: OK directory \"[accounts]\" size=57 owner=\"system\" created=0.000 modified=0.000 writable=true instance=3 attrs=[] bytes=40 @88.043";
    "file | read #4 block 0: OK data=512:956b5935 bytes=512 @92.629";
    "file | read #4 block 1: OK data=512:3c4f7f41 bytes=512 @97.214";
    "file | read #4 block 2: OK data=276:ebfb32b1 bytes=276 @101.170";
    "file | read #4 block 3: end of file bytes=0 @103.730";
    "file | read #4 block -1: invalid instance bytes=0 @106.290";
    "file | write #4: no permission bytes=0 @109.545";
    "file | read #4 block 0: OK data=512:956b5935 bytes=512 @114.130";
    "file | query #4: OK file \"big.txt\" size=1300 owner=\"system\" created=0.000 modified=0.000 writable=true instance=4 attrs=[] bytes=37 @117.449";
    "file | read #5 block 0: OK data=512:956b5935 bytes=512 @122.034";
    "file | read #5 block 1: OK data=188:b8c54fef bytes=188 @125.755";
    "file | read #5 block 2: end of file bytes=0 @128.315";
    "file | read #5 block -1: invalid instance bytes=0 @130.875";
    "file | write #5: OK count=13 bytes=0 @871.280";
    "file | read #5 block 0: OK data=512:956b5935 bytes=512 @875.865";
    "file | query #5: OK file \"log.txt\" size=1037 owner=\"system\" created=0.000 modified=870.000 writable=true instance=5 attrs=[] bytes=37 @879.184";
    "file | read #6 block 0: end of file bytes=0 @881.744";
    "file | read #6 block -1: invalid instance bytes=0 @884.304";
    "file | write #6: OK count=13 bytes=0 @902.559";
    "file | read #6 block 0: OK data=13:3d3e1507 bytes=13 @905.813";
    "file | query #6: OK file \"scratch.txt\" size=13 owner=\"system\" created=0.000 modified=901.279 writable=true instance=6 attrs=[] bytes=41 @909.143";
    "file | set-size #1 10: no permission bytes=0 @911.703";
    "file | set-size #4 10: no permission bytes=0 @914.263";
    "file | set-size #5 10: OK bytes=0 @916.823";
    "file | inverse-map #1: OK name=\"/\" bytes=1 @920.045";
    "file | inverse-map #3: OK name=\"[accounts]\" bytes=10 @923.292";
    "file | inverse-map #4: OK name=\"/big.txt\" bytes=8 @926.533";
    "file | inverse-map #5: OK name=\"/log.txt\" bytes=8 @929.775";
    "file | inverse-map #999: invalid instance bytes=0 @932.335";
    "file | release #4: OK bytes=0 @934.895";
    "file | inverse-map #4: invalid instance bytes=0 @937.455";
    "file | release #1: OK bytes=0 @940.015";
    "file | release #1: invalid instance bytes=0 @942.575";
    "file | read #1 block 0: invalid instance bytes=0 @945.135";
    "file | query #1: invalid instance bytes=0 @947.695";
    "file | write #1: invalid instance bytes=0 @950.949";
    "file | release #2: OK bytes=0 @953.509";
    "file | release #2: invalid instance bytes=0 @956.069";
    "file | read #2 block 0: invalid instance bytes=0 @958.629";
    "file | query #2: invalid instance bytes=0 @961.189";
    "file | write #2: invalid instance bytes=0 @964.444";
    "file | release #3: OK bytes=0 @967.004";
    "file | release #3: invalid instance bytes=0 @969.564";
    "file | read #3 block 0: invalid instance bytes=0 @972.124";
    "file | query #3: invalid instance bytes=0 @974.684";
    "file | write #3: invalid instance bytes=0 @977.939";
    "file | release #4: invalid instance bytes=0 @980.499";
    "file | release #4: invalid instance bytes=0 @983.059";
    "file | read #4 block 0: invalid instance bytes=0 @985.619";
    "file | query #4: invalid instance bytes=0 @988.179";
    "file | write #4: invalid instance bytes=0 @991.433";
    "file | release #5: OK bytes=0 @993.993";
    "file | release #5: invalid instance bytes=0 @996.553";
    "file | read #5 block 0: invalid instance bytes=0 @999.113";
    "file | query #5: invalid instance bytes=0 @1001.673";
    "file | write #5: invalid instance bytes=0 @1004.928";
    "file | release #6: OK bytes=0 @1007.488";
    "file | release #6: invalid instance bytes=0 @1010.048";
    "file | read #6 block 0: invalid instance bytes=0 @1012.608";
    "file | query #6: invalid instance bytes=0 @1015.168";
    "file | write #6: invalid instance bytes=0 @1018.423";
    "file | query #999: invalid instance bytes=0 @1020.983";
    "file | release #999: invalid instance bytes=0 @1023.543";
    "file | ids opened: 1 2 3 4 5 6";
    "prefix | open \"\" read: OK instance=1 size=645 block=512 bytes=0 @1024.673";
    "prefix | open \"\" dir: OK instance=2 size=645 block=512 bytes=0 @1025.803";
    "prefix | read #2 block 0: OK data=512:b267696a bytes=512 @1026.573";
    "prefix | read #2 block 1: OK data=133:3a2c5dc1 bytes=133 @1027.343";
    "prefix | read #2 block 2: end of file bytes=0 @1028.113";
    "prefix | read #2 block -1: invalid instance bytes=0 @1028.883";
    "prefix | write #2: no permission bytes=0 @1029.653";
    "prefix | read #2 block 0: OK data=512:b267696a bytes=512 @1030.423";
    "prefix | query #2: OK directory \"[prefixes]\" size=645 owner=\"ws0\" created=0.000 modified=0.000 writable=true instance=2 attrs=[] bytes=37 @1031.193";
    "prefix | release #2: OK bytes=0 @1031.963";
    "prefix | release #2: invalid instance bytes=0 @1032.733";
    "prefix | read #2 block 0: invalid instance bytes=0 @1033.503";
    "prefix | query #2: invalid instance bytes=0 @1034.273";
    "prefix | write #2: invalid instance bytes=0 @1035.043";
    "prefix | query #999: invalid instance bytes=0 @1035.813";
    "prefix | release #999: invalid instance bytes=0 @1036.583";
    "prefix | ids opened: 2";
    "terminal | create console: OK bytes=0 @1037.713";
    "terminal | open \"console\" write: OK instance=2 size=0 block=512 bytes=0 @1038.843";
    "terminal | write #2: OK count=63 bytes=0 @1039.613";
    "terminal | write #2: OK count=63 bytes=0 @1040.383";
    "terminal | write #2: OK count=63 bytes=0 @1041.153";
    "terminal | write #2: OK count=63 bytes=0 @1041.923";
    "terminal | write #2: OK count=63 bytes=0 @1042.693";
    "terminal | write #2: OK count=63 bytes=0 @1043.463";
    "terminal | write #2: OK count=63 bytes=0 @1044.233";
    "terminal | write #2: OK count=63 bytes=0 @1045.003";
    "terminal | write #2: OK count=63 bytes=0 @1045.773";
    "terminal | write #2: OK count=63 bytes=0 @1046.543";
    "terminal | write #2: OK count=63 bytes=0 @1047.313";
    "terminal | write #2: OK count=63 bytes=0 @1048.083";
    "terminal | open \"console\" read: OK instance=3 size=768 block=512 bytes=0 @1049.213";
    "terminal | open \"\" dir: OK instance=4 size=37 block=512 bytes=0 @1050.223";
    "terminal | create tty2: OK bytes=0 @1051.353";
    "terminal | read #2 block 0: end of file bytes=0 @1052.123";
    "terminal | read #2 block -1: invalid instance bytes=0 @1052.893";
    "terminal | write #2: OK count=13 bytes=0 @1053.663";
    "terminal | read #2 block 0: end of file bytes=0 @1054.433";
    "terminal | query #2: OK terminal \"console\" size=13 owner=\"system\" created=1037.328 modified=1054.818 writable=true instance=1 attrs=[] bytes=37 @1055.203";
    "terminal | read #3 block 0: OK data=512:ddfe5c92 bytes=512 @1055.973";
    "terminal | read #3 block 1: OK data=256:d26fa55f bytes=256 @1056.743";
    "terminal | read #3 block 2: end of file bytes=0 @1057.513";
    "terminal | read #3 block -1: invalid instance bytes=0 @1058.283";
    "terminal | write #3: no permission bytes=0 @1059.053";
    "terminal | read #3 block 0: OK data=512:ddfe5c92 bytes=512 @1059.823";
    "terminal | query #3: OK terminal \"console\" size=13 owner=\"system\" created=1037.328 modified=1060.208 writable=true instance=1 attrs=[] bytes=37 @1060.593";
    "terminal | read #4 block 0: OK data=37:ab46d9b4 bytes=37 @1061.363";
    "terminal | read #4 block 1: end of file bytes=0 @1062.133";
    "terminal | read #4 block -1: invalid instance bytes=0 @1062.903";
    "terminal | write #4: no permission bytes=0 @1063.673";
    "terminal | read #4 block 0: OK data=37:ab46d9b4 bytes=37 @1064.443";
    "terminal | query #4: OK directory \"[terminals]\" size=37 owner=\"system\" created=0.000 modified=0.000 writable=true instance=4 attrs=[] bytes=41 @1065.213";
    "terminal | release #2: OK bytes=0 @1065.983";
    "terminal | release #2: invalid instance bytes=0 @1066.753";
    "terminal | read #2 block 0: invalid instance bytes=0 @1067.523";
    "terminal | query #2: invalid instance bytes=0 @1068.293";
    "terminal | write #2: invalid instance bytes=0 @1069.063";
    "terminal | release #3: OK bytes=0 @1069.833";
    "terminal | release #3: invalid instance bytes=0 @1070.603";
    "terminal | read #3 block 0: invalid instance bytes=0 @1071.373";
    "terminal | query #3: invalid instance bytes=0 @1072.143";
    "terminal | write #3: invalid instance bytes=0 @1072.913";
    "terminal | release #4: OK bytes=0 @1073.683";
    "terminal | release #4: invalid instance bytes=0 @1074.453";
    "terminal | read #4 block 0: invalid instance bytes=0 @1075.223";
    "terminal | query #4: invalid instance bytes=0 @1075.993";
    "terminal | write #4: invalid instance bytes=0 @1076.763";
    "terminal | query #999: invalid instance bytes=0 @1077.533";
    "terminal | release #999: invalid instance bytes=0 @1078.303";
    "terminal | ids opened: 2 3 4";
    "vgts | create editor: OK bytes=0 @1079.433";
    "vgts | open \"editor\" write: OK instance=2 size=0 block=512 bytes=0 @1080.563";
    "vgts | write #2: OK count=58 bytes=0 @1081.333";
    "vgts | write #2: OK count=58 bytes=0 @1082.103";
    "vgts | write #2: OK count=58 bytes=0 @1082.873";
    "vgts | write #2: OK count=58 bytes=0 @1083.643";
    "vgts | write #2: OK count=58 bytes=0 @1084.413";
    "vgts | write #2: OK count=58 bytes=0 @1085.183";
    "vgts | write #2: OK count=58 bytes=0 @1085.953";
    "vgts | write #2: OK count=58 bytes=0 @1086.723";
    "vgts | write #2: OK count=58 bytes=0 @1087.493";
    "vgts | write #2: OK count=58 bytes=0 @1088.263";
    "vgts | write #2: OK count=58 bytes=0 @1089.033";
    "vgts | write #2: OK count=58 bytes=0 @1089.803";
    "vgts | open \"editor\" read: OK instance=3 size=708 block=512 bytes=0 @1090.933";
    "vgts | open \"mail-window\" append: OK instance=5 size=0 block=512 bytes=0 @1092.063";
    "vgts | open \"\" dir: OK instance=6 size=127 block=512 bytes=0 @1093.073";
    "vgts | read #2 block 0: OK data=512:dc680ddc bytes=512 @1093.843";
    "vgts | read #2 block 1: OK data=196:a0121014 bytes=196 @1094.613";
    "vgts | read #2 block 2: end of file bytes=0 @1095.383";
    "vgts | read #2 block -1: invalid instance bytes=0 @1096.153";
    "vgts | write #2: OK count=13 bytes=0 @1096.923";
    "vgts | read #2 block 0: OK data=512:dc680ddc bytes=512 @1097.693";
    "vgts | query #2: OK device \"editor\" size=13 owner=\"system\" created=1079.048 modified=0.000 writable=true instance=1 attrs=[x=2;y=1;w=28;h=7] bytes=61 @1098.463";
    "vgts | read #3 block 0: OK data=512:dc680ddc bytes=512 @1099.233";
    "vgts | read #3 block 1: OK data=210:a75741de bytes=210 @1100.003";
    "vgts | read #3 block 2: end of file bytes=0 @1100.773";
    "vgts | read #3 block -1: invalid instance bytes=0 @1101.543";
    "vgts | write #3: OK count=13 bytes=0 @1102.313";
    "vgts | read #3 block 0: OK data=512:dc680ddc bytes=512 @1103.083";
    "vgts | query #3: OK device \"editor\" size=14 owner=\"system\" created=1079.048 modified=0.000 writable=true instance=1 attrs=[x=2;y=1;w=28;h=7] bytes=61 @1103.853";
    "vgts | read #5 block 0: end of file bytes=0 @1104.623";
    "vgts | read #5 block -1: invalid instance bytes=0 @1105.393";
    "vgts | write #5: OK count=13 bytes=0 @1106.163";
    "vgts | read #5 block 0: OK data=14:f9506232 bytes=14 @1106.933";
    "vgts | query #5: OK device \"mail-window\" size=1 owner=\"system\" created=1091.678 modified=0.000 writable=true instance=4 attrs=[x=5;y=3;w=28;h=7] bytes=66 @1107.703";
    "vgts | read #6 block 0: OK data=127:3f4b0d1d bytes=127 @1108.473";
    "vgts | read #6 block 1: end of file bytes=0 @1109.243";
    "vgts | read #6 block -1: invalid instance bytes=0 @1110.013";
    "vgts | write #6: no permission bytes=0 @1110.783";
    "vgts | read #6 block 0: OK data=127:3f4b0d1d bytes=127 @1111.553";
    "vgts | query #6: OK directory \"[windows]\" size=127 owner=\"system\" created=0.000 modified=0.000 writable=true instance=6 attrs=[] bytes=39 @1112.323";
    "vgts | release #2: OK bytes=0 @1113.093";
    "vgts | release #2: invalid instance bytes=0 @1113.863";
    "vgts | read #2 block 0: invalid instance bytes=0 @1114.633";
    "vgts | query #2: invalid instance bytes=0 @1115.403";
    "vgts | write #2: invalid instance bytes=0 @1116.173";
    "vgts | release #3: OK bytes=0 @1116.943";
    "vgts | release #3: invalid instance bytes=0 @1117.713";
    "vgts | read #3 block 0: invalid instance bytes=0 @1118.483";
    "vgts | query #3: invalid instance bytes=0 @1119.253";
    "vgts | write #3: invalid instance bytes=0 @1120.023";
    "vgts | release #5: OK bytes=0 @1120.793";
    "vgts | release #5: invalid instance bytes=0 @1121.563";
    "vgts | read #5 block 0: invalid instance bytes=0 @1122.333";
    "vgts | query #5: invalid instance bytes=0 @1123.103";
    "vgts | write #5: invalid instance bytes=0 @1123.873";
    "vgts | release #6: OK bytes=0 @1124.643";
    "vgts | release #6: invalid instance bytes=0 @1125.413";
    "vgts | read #6 block 0: invalid instance bytes=0 @1126.183";
    "vgts | query #6: invalid instance bytes=0 @1126.953";
    "vgts | write #6: invalid instance bytes=0 @1127.723";
    "vgts | query #999: invalid instance bytes=0 @1128.493";
    "vgts | release #999: invalid instance bytes=0 @1129.263";
    "vgts | ids opened: 2 3 5 6";
    "programs | open \"\" dir: OK instance=1 size=564 block=512 bytes=0 @1256.593";
    "programs | read #1 block 0: OK data=512:24ad4367 bytes=512 @1257.363";
    "programs | read #1 block 1: OK data=52:241d76b5 bytes=52 @1258.133";
    "programs | read #1 block 2: end of file bytes=0 @1258.903";
    "programs | read #1 block -1: invalid instance bytes=0 @1259.673";
    "programs | write #1: no permission bytes=0 @1260.443";
    "programs | read #1 block 0: OK data=512:24ad4367 bytes=512 @1261.213";
    "programs | query #1: OK directory \"[programs]\" size=564 owner=\"system\" created=0.000 modified=0.000 writable=true instance=1 attrs=[] bytes=40 @1261.983";
    "programs | release #1: OK bytes=0 @1262.753";
    "programs | release #1: invalid instance bytes=0 @1263.523";
    "programs | read #1 block 0: invalid instance bytes=0 @1264.293";
    "programs | query #1: invalid instance bytes=0 @1265.063";
    "programs | write #1: invalid instance bytes=0 @1265.833";
    "programs | query #999: invalid instance bytes=0 @1266.603";
    "programs | release #999: invalid instance bytes=0 @1267.373";
    "programs | ids opened: 1";
    "exceptions | open \"\" dir: OK instance=1 size=1044 block=512 bytes=0 @1279.863";
    "exceptions | read #1 block 0: OK data=512:0a9ca041 bytes=512 @1280.633";
    "exceptions | read #1 block 1: OK data=512:8081db2c bytes=512 @1281.403";
    "exceptions | read #1 block 2: OK data=20:b298f2f9 bytes=20 @1282.173";
    "exceptions | read #1 block 3: end of file bytes=0 @1282.943";
    "exceptions | read #1 block -1: invalid instance bytes=0 @1283.713";
    "exceptions | write #1: no permission bytes=0 @1284.483";
    "exceptions | read #1 block 0: OK data=512:0a9ca041 bytes=512 @1285.253";
    "exceptions | query #1: OK directory \"[exceptions]\" size=1044 owner=\"system\" created=0.000 modified=0.000 writable=true instance=1 attrs=[] bytes=42 @1286.023";
    "exceptions | release #1: OK bytes=0 @1286.793";
    "exceptions | release #1: invalid instance bytes=0 @1287.563";
    "exceptions | read #1 block 0: invalid instance bytes=0 @1288.333";
    "exceptions | query #1: invalid instance bytes=0 @1289.103";
    "exceptions | write #1: invalid instance bytes=0 @1289.873";
    "exceptions | query #999: invalid instance bytes=0 @1290.643";
    "exceptions | release #999: invalid instance bytes=0 @1291.413";
    "exceptions | ids opened: 1";
    "printer | open \"report.txt\" read: no permission bytes=0 @1295.019";
    "printer | open \"report.txt\" write: OK instance=1 size=0 block=512 bytes=0 @1298.626";
    "printer | write #1: OK count=54 bytes=0 @1301.990";
    "printer | write #1: OK count=54 bytes=0 @1305.354";
    "printer | write #1: OK count=54 bytes=0 @1308.718";
    "printer | write #1: OK count=54 bytes=0 @1312.082";
    "printer | write #1: OK count=54 bytes=0 @1315.446";
    "printer | write #1: OK count=54 bytes=0 @1318.810";
    "printer | write #1: OK count=54 bytes=0 @1322.174";
    "printer | write #1: OK count=54 bytes=0 @1325.538";
    "printer | write #1: OK count=54 bytes=0 @1328.902";
    "printer | write #1: OK count=54 bytes=0 @1332.266";
    "printer | write #1: OK count=54 bytes=0 @1335.630";
    "printer | write #1: OK count=54 bytes=0 @1338.994";
    "printer | write #1: OK count=54 bytes=0 @1342.358";
    "printer | write #1: OK count=54 bytes=0 @1345.722";
    "printer | open \"memo.txt\" write: OK instance=2 size=0 block=512 bytes=0 @1349.323";
    "printer | open \"\" dir: OK instance=3 size=112 block=512 bytes=0 @1352.123";
    "printer | read #1 block 0: OK data=512:6ec1670a bytes=512 @1356.709";
    "printer | read #1 block 1: OK data=244:54be3890 bytes=244 @1360.579";
    "printer | read #1 block 2: end of file bytes=0 @1363.139";
    "printer | read #1 block -1: invalid instance bytes=0 @1365.699";
    "printer | write #1: OK count=13 bytes=0 @1368.954";
    "printer | read #1 block 0: OK data=512:6ec1670a bytes=512 @1373.539";
    "printer | query #1: OK printer-job \"report.txt\" size=769 owner=\"system\" created=1297.346 modified=0.000 writable=true instance=- attrs=[state=spooling] bytes=57 @1376.911";
    "printer | read #2 block 0: end of file bytes=0 @1379.471";
    "printer | read #2 block -1: invalid instance bytes=0 @1382.031";
    "printer | write #2: OK count=13 bytes=0 @1385.286";
    "printer | read #2 block 0: OK data=13:3d3e1507 bytes=13 @1388.541";
    "printer | query #2: OK printer-job \"memo.txt\" size=13 owner=\"system\" created=1348.043 modified=0.000 writable=true instance=- attrs=[state=spooling] bytes=55 @1391.907";
    "printer | read #3 block 0: OK data=112:1f834372 bytes=112 @1395.426";
    "printer | read #3 block 1: end of file bytes=0 @1397.986";
    "printer | read #3 block -1: invalid instance bytes=0 @1400.546";
    "printer | write #3: no permission bytes=0 @1403.801";
    "printer | read #3 block 0: OK data=112:1f834372 bytes=112 @1407.319";
    "printer | query #3: OK directory \"[queue]\" size=112 owner=\"system\" created=0.000 modified=0.000 writable=true instance=3 attrs=[] bytes=37 @1410.638";
    "printer | release #2: OK bytes=0 @1413.198";
    "printer | write #2: invalid instance bytes=0 @1416.439";
    "printer | release #1: OK bytes=0 @1418.999";
    "printer | release #1: invalid instance bytes=0 @1421.559";
    "printer | read #1 block 0: invalid instance bytes=0 @1424.119";
    "printer | query #1: invalid instance bytes=0 @1426.679";
    "printer | write #1: invalid instance bytes=0 @1429.934";
    "printer | release #2: invalid instance bytes=0 @1432.494";
    "printer | release #2: invalid instance bytes=0 @1435.054";
    "printer | read #2 block 0: invalid instance bytes=0 @1437.614";
    "printer | query #2: invalid instance bytes=0 @1440.174";
    "printer | write #2: invalid instance bytes=0 @1443.429";
    "printer | release #3: OK bytes=0 @1445.989";
    "printer | release #3: invalid instance bytes=0 @1448.549";
    "printer | read #3 block 0: invalid instance bytes=0 @1451.109";
    "printer | query #3: invalid instance bytes=0 @1453.669";
    "printer | write #3: invalid instance bytes=0 @1456.923";
    "printer | query #999: invalid instance bytes=0 @1459.483";
    "printer | release #999: invalid instance bytes=0 @1462.043";
    "printer | ids opened: 1 2 3";
    "mail | open \"cheriton@su-score\" append: OK instance=1 size=0 block=2048 bytes=0 @1465.549";
    "mail | write #1: OK count=112 bytes=0 @1469.067";
    "mail | write #1: OK count=112 bytes=0 @1472.586";
    "mail | write #1: OK count=112 bytes=0 @1476.105";
    "mail | write #1: OK count=112 bytes=0 @1479.623";
    "mail | write #1: OK count=112 bytes=0 @1483.142";
    "mail | write #1: OK count=112 bytes=0 @1486.661";
    "mail | write #1: OK count=112 bytes=0 @1490.179";
    "mail | write #1: OK count=112 bytes=0 @1493.698";
    "mail | write #1: OK count=112 bytes=0 @1497.217";
    "mail | write #1: OK count=112 bytes=0 @1500.735";
    "mail | write #1: OK count=112 bytes=0 @1504.254";
    "mail | write #1: OK count=112 bytes=0 @1507.773";
    "mail | write #1: OK count=112 bytes=0 @1511.291";
    "mail | write #1: OK count=112 bytes=0 @1514.810";
    "mail | write #1: OK count=112 bytes=0 @1518.329";
    "mail | write #1: OK count=112 bytes=0 @1521.847";
    "mail | write #1: OK count=112 bytes=0 @1525.366";
    "mail | write #1: OK count=112 bytes=0 @1528.885";
    "mail | write #1: OK count=112 bytes=0 @1532.403";
    "mail | write #1: OK count=112 bytes=0 @1535.922";
    "mail | write #1: OK count=112 bytes=0 @1539.441";
    "mail | write #1: OK count=112 bytes=0 @1542.959";
    "mail | read #1 block 0: no permission bytes=0 @1545.519";
    "mail | open \"cheriton@su-score\" read: OK instance=2 size=2771 block=2048 bytes=0 @1549.025";
    "mail | open \"\" dir: OK instance=3 size=47 block=2048 bytes=0 @1551.825";
    "mail | read #1 block 0: no permission bytes=0 @1554.385";
    "mail | read #1 block -1: no permission bytes=0 @1556.945";
    "mail | write #1: OK count=13 bytes=0 @1560.199";
    "mail | read #1 block 0: no permission bytes=0 @1562.759";
    "mail | query #1: OK mailbox \"cheriton@su-score\" size=23 owner=\"system\" created=1464.269 modified=0.000 writable=true instance=- attrs=[] bytes=47 @1566.105";
    "mail | read #2 block 0: OK data=2048:fa360678 bytes=2048 @1574.786";
    "mail | read #2 block 1: OK data=723:7b7cbe95 bytes=723 @1579.934";
    "mail | read #2 block 2: end of file bytes=0 @1582.494";
    "mail | read #2 block -1: invalid instance bytes=0 @1585.054";
    "mail | write #2: no permission bytes=0 @1588.309";
    "mail | read #2 block 0: OK data=2048:fa360678 bytes=2048 @1596.990";
    "mail | query #2: OK mailbox \"cheriton@su-score\" size=2771 owner=\"system\" created=0.000 modified=0.000 writable=true instance=2 attrs=[] bytes=47 @1600.335";
    "mail | read #3 block 0: OK data=47:2a2d1704 bytes=47 @1603.681";
    "mail | read #3 block 1: end of file bytes=0 @1606.241";
    "mail | read #3 block -1: invalid instance bytes=0 @1608.801";
    "mail | write #3: no permission bytes=0 @1612.055";
    "mail | read #3 block 0: OK data=47:2a2d1704 bytes=47 @1615.401";
    "mail | query #3: OK directory \"[mail]\" size=47 owner=\"system\" created=0.000 modified=0.000 writable=true instance=3 attrs=[] bytes=36 @1618.717";
    "mail | release #1: OK bytes=0 @1621.277";
    "mail | release #1: invalid instance bytes=0 @1623.837";
    "mail | read #1 block 0: invalid instance bytes=0 @1626.397";
    "mail | query #1: invalid instance bytes=0 @1628.957";
    "mail | write #1: invalid instance bytes=0 @1632.211";
    "mail | release #2: OK bytes=0 @1634.771";
    "mail | release #2: invalid instance bytes=0 @1637.331";
    "mail | read #2 block 0: invalid instance bytes=0 @1639.891";
    "mail | query #2: invalid instance bytes=0 @1642.451";
    "mail | write #2: invalid instance bytes=0 @1645.706";
    "mail | release #3: OK bytes=0 @1648.266";
    "mail | release #3: invalid instance bytes=0 @1650.826";
    "mail | read #3 block 0: invalid instance bytes=0 @1653.386";
    "mail | query #3: invalid instance bytes=0 @1655.946";
    "mail | write #3: invalid instance bytes=0 @1659.201";
    "mail | query #999: invalid instance bytes=0 @1661.761";
    "mail | release #999: invalid instance bytes=0 @1664.321";
    "mail | ids opened: 1 2 3";
    "internet | open \"score:23\" write: OK instance=2 size=0 block=512 bytes=0 @1667.922";
    "internet | write #2: OK count=73 bytes=0 @1671.337";
    "internet | write #2: OK count=73 bytes=0 @1674.751";
    "internet | write #2: OK count=73 bytes=0 @1678.166";
    "internet | write #2: OK count=73 bytes=0 @1681.581";
    "internet | write #2: OK count=73 bytes=0 @1684.995";
    "internet | write #2: OK count=73 bytes=0 @1688.410";
    "internet | write #2: OK count=73 bytes=0 @1691.825";
    "internet | write #2: OK count=73 bytes=0 @1695.239";
    "internet | write #2: OK count=73 bytes=0 @1698.654";
    "internet | open \"score:23\" read: OK instance=3 size=657 block=512 bytes=0 @1902.255";
    "internet | open \"sumex:25\" write: OK instance=5 size=0 block=512 bytes=0 @1905.857";
    "internet | open \"\" dir: OK instance=6 size=113 block=512 bytes=0 @1908.657";
    "internet | read #2 block 0: OK data=512:02d29b00 bytes=512 @1913.242";
    "internet | read #2 block 1: OK data=145:fe618f37 bytes=145 @1916.849";
    "internet | read #2 block 2: end of file bytes=0 @1919.409";
    "internet | read #2 block -1: invalid instance bytes=0 @1921.969";
    "internet | write #2: OK count=13 bytes=0 @1925.223";
    "internet | read #2 block 0: OK data=512:02d29b00 bytes=512 @1929.809";
    "internet | query #2: OK tcp-connection \"score:23\" size=670 owner=\"system\" created=1666.642 modified=0.000 writable=true instance=1 attrs=[state=established] bytes=58 @1933.183";
    "internet | read #3 block 0: OK data=512:02d29b00 bytes=512 @1937.769";
    "internet | read #3 block 1: OK data=145:fe618f37 bytes=145 @1941.375";
    "internet | read #3 block 2: end of file bytes=0 @1943.935";
    "internet | read #3 block -1: invalid instance bytes=0 @1946.495";
    "internet | write #3: OK count=13 bytes=0 @1949.750";
    "internet | read #3 block 0: OK data=512:02d29b00 bytes=512 @1954.335";
    "internet | query #3: OK tcp-connection \"score:23\" size=683 owner=\"system\" created=1666.642 modified=0.000 writable=true instance=1 attrs=[state=established] bytes=58 @1957.710";
    "internet | read #6 block 0: OK data=113:ebe6e7ac bytes=113 @1961.231";
    "internet | read #6 block 1: end of file bytes=0 @1963.791";
    "internet | read #6 block -1: invalid instance bytes=0 @1966.351";
    "internet | write #6: no permission bytes=0 @1969.606";
    "internet | read #6 block 0: OK data=113:ebe6e7ac bytes=113 @1973.127";
    "internet | query #6: OK directory \"[internet]\" size=113 owner=\"system\" created=0.000 modified=0.000 writable=true instance=6 attrs=[] bytes=40 @1976.454";
    "internet | remove sumex:25: OK bytes=0 @1980.055";
    "internet | read #5 block 0: end of file bytes=0 @1982.615";
    "internet | read #5 block -1: invalid instance bytes=0 @1985.175";
    "internet | write #5: no permission bytes=0 @1988.430";
    "internet | read #5 block 0: end of file bytes=0 @1990.990";
    "internet | query #5: OK tcp-connection \"sumex:25\" size=0 owner=\"system\" created=1904.577 modified=0.000 writable=true instance=4 attrs=[state=closed] bytes=53 @1994.351";
    "internet | release #2: OK bytes=0 @1996.911";
    "internet | release #2: invalid instance bytes=0 @1999.471";
    "internet | read #2 block 0: invalid instance bytes=0 @2002.031";
    "internet | query #2: invalid instance bytes=0 @2004.591";
    "internet | write #2: invalid instance bytes=0 @2007.846";
    "internet | release #3: OK bytes=0 @2010.406";
    "internet | release #3: invalid instance bytes=0 @2012.966";
    "internet | read #3 block 0: invalid instance bytes=0 @2015.526";
    "internet | query #3: invalid instance bytes=0 @2018.086";
    "internet | write #3: invalid instance bytes=0 @2021.341";
    "internet | release #5: OK bytes=0 @2023.901";
    "internet | release #5: invalid instance bytes=0 @2026.461";
    "internet | read #5 block 0: invalid instance bytes=0 @2029.021";
    "internet | query #5: invalid instance bytes=0 @2031.581";
    "internet | write #5: invalid instance bytes=0 @2034.835";
    "internet | release #6: OK bytes=0 @2037.395";
    "internet | release #6: invalid instance bytes=0 @2039.955";
    "internet | read #6 block 0: invalid instance bytes=0 @2042.515";
    "internet | query #6: invalid instance bytes=0 @2045.075";
    "internet | write #6: invalid instance bytes=0 @2048.330";
    "internet | query #999: invalid instance bytes=0 @2050.890";
    "internet | release #999: invalid instance bytes=0 @2053.450";
    "internet | ids opened: 2 3 5 6";
  ]

let servers =
  [
    "file";
    "prefix";
    "terminal";
    "vgts";
    "programs";
    "exceptions";
    "printer";
    "mail";
    "internet";
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
    ( "instance-io",
      List.map
        (fun label -> Alcotest.test_case label `Quick (test_server label))
        servers );
  ]
