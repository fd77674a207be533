(* Every instance server's I/O-protocol replies, pinned.

   [drive] boots the standard installation and talks to the file,
   prefix, terminal, VGTS, program-manager, exception, printer, mail
   and internet servers directly, one raw request at a time, so each
   line is exactly one reply: its code, its payload (the full
   descriptor for a query), its wire bytes and the simulated time it
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
   listing after it has the next id. *)

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
  Fmt.str "%s%s xb=%d" code payload m.Vmsg.extra_bytes

let mode_name = function
  | Vmsg.Read -> "read"
  | Vmsg.Write -> "write"
  | Vmsg.Append -> "append"
  | Vmsg.Directory_listing -> "dir"

let never_opened = 999

(* [n] lines of [f i], for i = 0 .. n-1. *)
let lines_of n f = List.init n f

let drive () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
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
    (Scenario.spawn_client t ~ws:0 ~name:"io" (fun self env ->
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
    "file | open \"\" dir: OK instance=1 size=250 block=512 xb=0 @2.990";
    "file | open \"many\" dir: OK instance=2 size=760 block=512 xb=0 @6.981";
    "file | open \"\" dir: OK instance=3 size=57 block=512 xb=0 @9.781";
    "file | open \"big.txt\" read: OK instance=4 size=1300 block=512 xb=0 @13.379";
    "file | open \"log.txt\" append: OK instance=5 size=700 block=512 xb=0 @16.978";
    "file | open \"scratch.txt\" write: OK instance=6 size=0 block=512 xb=0 @20.587";
    "file | write #6: invalid instance xb=0 @23.147";
    "file | read #1 block 0: OK data=250:6775ca33 xb=250 @27.034";
    "file | read #1 block 1: end of file xb=0 @29.594";
    "file | read #1 block -1: invalid instance xb=0 @32.154";
    "file | write #1: no permission xb=0 @34.714";
    "file | read #1 block 0: OK data=250:6775ca33 xb=250 @38.601";
    "file | query #1: OK directory \"/\" size=250 owner=\"system\" created=0.000 modified=0.000 writable=true instance=1 attrs=[] xb=0 @41.161";
    "file | read #2 block 0: OK data=512:a255cd98 xb=512 @45.746";
    "file | read #2 block 1: OK data=248:392855a7 xb=248 @49.627";
    "file | read #2 block 2: end of file xb=0 @52.187";
    "file | read #2 block -1: invalid instance xb=0 @54.747";
    "file | write #2: no permission xb=0 @57.307";
    "file | read #2 block 0: OK data=512:a255cd98 xb=512 @61.893";
    "file | query #2: OK directory \"/many\" size=760 owner=\"system\" created=0.000 modified=0.000 writable=true instance=2 attrs=[] xb=0 @64.453";
    "file | read #3 block 0: OK data=57:6fa198b3 xb=57 @67.825";
    "file | read #3 block 1: end of file xb=0 @70.385";
    "file | read #3 block -1: invalid instance xb=0 @72.945";
    "file | write #3: no permission xb=0 @75.505";
    "file | read #3 block 0: OK data=57:6fa198b3 xb=57 @78.877";
    "file | query #3: OK directory \"[accounts]\" size=57 owner=\"system\" created=0.000 modified=0.000 writable=true instance=3 attrs=[] xb=0 @81.437";
    "file | read #4 block 0: OK data=512:956b5935 xb=512 @86.022";
    "file | read #4 block 1: OK data=512:3c4f7f41 xb=512 @90.607";
    "file | read #4 block 2: OK data=276:ebfb32b1 xb=276 @94.563";
    "file | read #4 block 3: end of file xb=0 @97.123";
    "file | read #4 block -1: invalid instance xb=0 @99.683";
    "file | write #4: no permission xb=0 @102.243";
    "file | read #4 block 0: OK data=512:956b5935 xb=512 @106.829";
    "file | query #4: OK file \"big.txt\" size=1300 owner=\"system\" created=0.000 modified=0.000 writable=true instance=4 attrs=[] xb=0 @109.389";
    "file | read #5 block 0: OK data=512:956b5935 xb=512 @113.974";
    "file | read #5 block 1: OK data=188:b8c54fef xb=188 @117.695";
    "file | read #5 block 2: end of file xb=0 @120.255";
    "file | read #5 block -1: invalid instance xb=0 @122.815";
    "file | write #5: OK count=13 xb=0 @871.280";
    "file | read #5 block 0: OK data=512:956b5935 xb=512 @875.865";
    "file | query #5: OK file \"log.txt\" size=1037 owner=\"system\" created=0.000 modified=870.000 writable=true instance=5 attrs=[] xb=0 @878.425";
    "file | read #6 block 0: end of file xb=0 @880.985";
    "file | read #6 block -1: invalid instance xb=0 @883.545";
    "file | write #6: OK count=13 xb=0 @901.105";
    "file | read #6 block 0: OK data=13:3d3e1507 xb=13 @904.360";
    "file | query #6: OK file \"scratch.txt\" size=13 owner=\"system\" created=0.000 modified=899.825 writable=true instance=6 attrs=[] xb=0 @906.920";
    "file | set-size #1 10: no permission xb=0 @909.480";
    "file | set-size #4 10: no permission xb=0 @912.040";
    "file | set-size #5 10: OK xb=0 @914.600";
    "file | inverse-map #1: OK name=\"/\" xb=0 @917.160";
    "file | inverse-map #3: OK name=\"[accounts]\" xb=0 @919.720";
    "file | inverse-map #4: OK name=\"/big.txt\" xb=0 @922.280";
    "file | inverse-map #5: OK name=\"/log.txt\" xb=0 @924.840";
    "file | inverse-map #999: invalid instance xb=0 @927.400";
    "file | release #4: OK xb=0 @929.960";
    "file | inverse-map #4: invalid instance xb=0 @932.520";
    "file | release #1: OK xb=0 @935.080";
    "file | release #1: invalid instance xb=0 @937.640";
    "file | read #1 block 0: invalid instance xb=0 @940.200";
    "file | query #1: invalid instance xb=0 @942.760";
    "file | write #1: invalid instance xb=0 @945.320";
    "file | release #2: OK xb=0 @947.880";
    "file | release #2: invalid instance xb=0 @950.440";
    "file | read #2 block 0: invalid instance xb=0 @953.000";
    "file | query #2: invalid instance xb=0 @955.560";
    "file | write #2: invalid instance xb=0 @958.120";
    "file | release #3: OK xb=0 @960.680";
    "file | release #3: invalid instance xb=0 @963.240";
    "file | read #3 block 0: invalid instance xb=0 @965.800";
    "file | query #3: invalid instance xb=0 @968.360";
    "file | write #3: invalid instance xb=0 @970.920";
    "file | release #4: invalid instance xb=0 @973.480";
    "file | release #4: invalid instance xb=0 @976.040";
    "file | read #4 block 0: invalid instance xb=0 @978.600";
    "file | query #4: invalid instance xb=0 @981.160";
    "file | write #4: invalid instance xb=0 @983.720";
    "file | release #5: OK xb=0 @986.280";
    "file | release #5: invalid instance xb=0 @988.840";
    "file | read #5 block 0: invalid instance xb=0 @991.400";
    "file | query #5: invalid instance xb=0 @993.960";
    "file | write #5: invalid instance xb=0 @996.520";
    "file | release #6: OK xb=0 @999.080";
    "file | release #6: invalid instance xb=0 @1001.640";
    "file | read #6 block 0: invalid instance xb=0 @1004.200";
    "file | query #6: invalid instance xb=0 @1006.760";
    "file | write #6: invalid instance xb=0 @1009.320";
    "file | query #999: invalid instance xb=0 @1011.880";
    "file | release #999: invalid instance xb=0 @1014.440";
    "file | ids opened: 1 2 3 4 5 6";
    "prefix | open \"\" read: OK instance=1 size=645 block=512 xb=0 @1015.570";
    "prefix | open \"\" dir: OK instance=2 size=645 block=512 xb=0 @1016.700";
    "prefix | read #2 block 0: OK data=512:ad9f1a6d xb=512 @1017.470";
    "prefix | read #2 block 1: OK data=133:f38baa0e xb=133 @1018.240";
    "prefix | read #2 block 2: end of file xb=0 @1019.010";
    "prefix | read #2 block -1: invalid instance xb=0 @1019.780";
    "prefix | write #2: no permission xb=0 @1020.550";
    "prefix | read #2 block 0: OK data=512:ad9f1a6d xb=512 @1021.320";
    "prefix | query #2: OK directory \"[prefixes]\" size=645 owner=\"ws0\" created=0.000 modified=0.000 writable=true instance=2 attrs=[] xb=0 @1022.090";
    "prefix | release #2: OK xb=0 @1022.860";
    "prefix | release #2: invalid instance xb=0 @1023.630";
    "prefix | read #2 block 0: invalid instance xb=0 @1024.400";
    "prefix | query #2: invalid instance xb=0 @1025.170";
    "prefix | write #2: invalid instance xb=0 @1025.940";
    "prefix | query #999: invalid instance xb=0 @1026.710";
    "prefix | release #999: invalid instance xb=0 @1027.480";
    "prefix | ids opened: 2";
    "terminal | create console: OK xb=0 @1028.610";
    "terminal | open \"console\" write: OK instance=2 size=0 block=512 xb=0 @1029.740";
    "terminal | write #2: OK count=63 xb=0 @1030.510";
    "terminal | write #2: OK count=63 xb=0 @1031.280";
    "terminal | write #2: OK count=63 xb=0 @1032.050";
    "terminal | write #2: OK count=63 xb=0 @1032.820";
    "terminal | write #2: OK count=63 xb=0 @1033.590";
    "terminal | write #2: OK count=63 xb=0 @1034.360";
    "terminal | write #2: OK count=63 xb=0 @1035.130";
    "terminal | write #2: OK count=63 xb=0 @1035.900";
    "terminal | write #2: OK count=63 xb=0 @1036.670";
    "terminal | write #2: OK count=63 xb=0 @1037.440";
    "terminal | write #2: OK count=63 xb=0 @1038.210";
    "terminal | write #2: OK count=63 xb=0 @1038.980";
    "terminal | open \"console\" read: OK instance=3 size=768 block=512 xb=0 @1040.110";
    "terminal | open \"\" dir: OK instance=4 size=37 block=512 xb=0 @1041.120";
    "terminal | create tty2: OK xb=0 @1042.250";
    "terminal | read #2 block 0: end of file xb=0 @1043.020";
    "terminal | read #2 block -1: invalid instance xb=0 @1043.790";
    "terminal | write #2: OK count=13 xb=0 @1044.560";
    "terminal | read #2 block 0: end of file xb=0 @1045.330";
    "terminal | query #2: OK terminal \"console\" size=13 owner=\"system\" created=1028.225 modified=1045.715 writable=true instance=1 attrs=[] xb=0 @1046.100";
    "terminal | read #3 block 0: OK data=512:ddfe5c92 xb=512 @1046.870";
    "terminal | read #3 block 1: OK data=256:d26fa55f xb=256 @1047.640";
    "terminal | read #3 block 2: end of file xb=0 @1048.410";
    "terminal | read #3 block -1: invalid instance xb=0 @1049.180";
    "terminal | write #3: no permission xb=0 @1049.950";
    "terminal | read #3 block 0: OK data=512:ddfe5c92 xb=512 @1050.720";
    "terminal | query #3: OK terminal \"console\" size=13 owner=\"system\" created=1028.225 modified=1051.105 writable=true instance=1 attrs=[] xb=0 @1051.490";
    "terminal | read #4 block 0: OK data=37:990ad798 xb=37 @1052.260";
    "terminal | read #4 block 1: end of file xb=0 @1053.030";
    "terminal | read #4 block -1: invalid instance xb=0 @1053.800";
    "terminal | write #4: no permission xb=0 @1054.570";
    "terminal | read #4 block 0: OK data=37:990ad798 xb=37 @1055.340";
    "terminal | query #4: OK directory \"[terminals]\" size=37 owner=\"system\" created=0.000 modified=0.000 writable=true instance=4 attrs=[] xb=0 @1056.110";
    "terminal | release #2: OK xb=0 @1056.880";
    "terminal | release #2: invalid instance xb=0 @1057.650";
    "terminal | read #2 block 0: invalid instance xb=0 @1058.420";
    "terminal | query #2: invalid instance xb=0 @1059.190";
    "terminal | write #2: invalid instance xb=0 @1059.960";
    "terminal | release #3: OK xb=0 @1060.730";
    "terminal | release #3: invalid instance xb=0 @1061.500";
    "terminal | read #3 block 0: invalid instance xb=0 @1062.270";
    "terminal | query #3: invalid instance xb=0 @1063.040";
    "terminal | write #3: invalid instance xb=0 @1063.810";
    "terminal | release #4: OK xb=0 @1064.580";
    "terminal | release #4: invalid instance xb=0 @1065.350";
    "terminal | read #4 block 0: invalid instance xb=0 @1066.120";
    "terminal | query #4: invalid instance xb=0 @1066.890";
    "terminal | write #4: invalid instance xb=0 @1067.660";
    "terminal | query #999: invalid instance xb=0 @1068.430";
    "terminal | release #999: invalid instance xb=0 @1069.200";
    "terminal | ids opened: 2 3 4";
    "vgts | create editor: OK xb=0 @1070.330";
    "vgts | open \"editor\" write: OK instance=2 size=0 block=512 xb=0 @1071.460";
    "vgts | write #2: OK count=58 xb=0 @1072.230";
    "vgts | write #2: OK count=58 xb=0 @1073.000";
    "vgts | write #2: OK count=58 xb=0 @1073.770";
    "vgts | write #2: OK count=58 xb=0 @1074.540";
    "vgts | write #2: OK count=58 xb=0 @1075.310";
    "vgts | write #2: OK count=58 xb=0 @1076.080";
    "vgts | write #2: OK count=58 xb=0 @1076.850";
    "vgts | write #2: OK count=58 xb=0 @1077.620";
    "vgts | write #2: OK count=58 xb=0 @1078.390";
    "vgts | write #2: OK count=58 xb=0 @1079.160";
    "vgts | write #2: OK count=58 xb=0 @1079.930";
    "vgts | write #2: OK count=58 xb=0 @1080.700";
    "vgts | open \"editor\" read: OK instance=3 size=708 block=512 xb=0 @1081.830";
    "vgts | open \"mail-window\" append: OK instance=5 size=0 block=512 xb=0 @1082.960";
    "vgts | open \"\" dir: OK instance=6 size=127 block=512 xb=0 @1083.970";
    "vgts | read #2 block 0: OK data=512:dc680ddc xb=512 @1084.740";
    "vgts | read #2 block 1: OK data=196:a0121014 xb=196 @1085.510";
    "vgts | read #2 block 2: end of file xb=0 @1086.280";
    "vgts | read #2 block -1: invalid instance xb=0 @1087.050";
    "vgts | write #2: OK count=13 xb=0 @1087.820";
    "vgts | read #2 block 0: OK data=512:dc680ddc xb=512 @1088.590";
    "vgts | query #2: OK device \"editor\" size=13 owner=\"system\" created=1069.945 modified=0.000 writable=true instance=1 attrs=[x=2;y=1;w=28;h=7] xb=0 @1089.360";
    "vgts | read #3 block 0: OK data=512:dc680ddc xb=512 @1090.130";
    "vgts | read #3 block 1: OK data=210:a75741de xb=210 @1090.900";
    "vgts | read #3 block 2: end of file xb=0 @1091.670";
    "vgts | read #3 block -1: invalid instance xb=0 @1092.440";
    "vgts | write #3: OK count=13 xb=0 @1093.210";
    "vgts | read #3 block 0: OK data=512:dc680ddc xb=512 @1093.980";
    "vgts | query #3: OK device \"editor\" size=14 owner=\"system\" created=1069.945 modified=0.000 writable=true instance=1 attrs=[x=2;y=1;w=28;h=7] xb=0 @1094.750";
    "vgts | read #5 block 0: end of file xb=0 @1095.520";
    "vgts | read #5 block -1: invalid instance xb=0 @1096.290";
    "vgts | write #5: OK count=13 xb=0 @1097.060";
    "vgts | read #5 block 0: OK data=14:f9506232 xb=14 @1097.830";
    "vgts | query #5: OK device \"mail-window\" size=1 owner=\"system\" created=1082.575 modified=0.000 writable=true instance=4 attrs=[x=5;y=3;w=28;h=7] xb=0 @1098.600";
    "vgts | read #6 block 0: OK data=127:db9a3368 xb=127 @1099.370";
    "vgts | read #6 block 1: end of file xb=0 @1100.140";
    "vgts | read #6 block -1: invalid instance xb=0 @1100.910";
    "vgts | write #6: no permission xb=0 @1101.680";
    "vgts | read #6 block 0: OK data=127:db9a3368 xb=127 @1102.450";
    "vgts | query #6: OK directory \"[windows]\" size=127 owner=\"system\" created=0.000 modified=0.000 writable=true instance=6 attrs=[] xb=0 @1103.220";
    "vgts | release #2: OK xb=0 @1103.990";
    "vgts | release #2: invalid instance xb=0 @1104.760";
    "vgts | read #2 block 0: invalid instance xb=0 @1105.530";
    "vgts | query #2: invalid instance xb=0 @1106.300";
    "vgts | write #2: invalid instance xb=0 @1107.070";
    "vgts | release #3: OK xb=0 @1107.840";
    "vgts | release #3: invalid instance xb=0 @1108.610";
    "vgts | read #3 block 0: invalid instance xb=0 @1109.380";
    "vgts | query #3: invalid instance xb=0 @1110.150";
    "vgts | write #3: invalid instance xb=0 @1110.920";
    "vgts | release #5: OK xb=0 @1111.690";
    "vgts | release #5: invalid instance xb=0 @1112.460";
    "vgts | read #5 block 0: invalid instance xb=0 @1113.230";
    "vgts | query #5: invalid instance xb=0 @1114.000";
    "vgts | write #5: invalid instance xb=0 @1114.770";
    "vgts | release #6: OK xb=0 @1115.540";
    "vgts | release #6: invalid instance xb=0 @1116.310";
    "vgts | read #6 block 0: invalid instance xb=0 @1117.080";
    "vgts | query #6: invalid instance xb=0 @1117.850";
    "vgts | write #6: invalid instance xb=0 @1118.620";
    "vgts | query #999: invalid instance xb=0 @1119.390";
    "vgts | release #999: invalid instance xb=0 @1120.160";
    "vgts | ids opened: 2 3 5 6";
    "programs | open \"\" dir: OK instance=1 size=564 block=512 xb=0 @1241.453";
    "programs | read #1 block 0: OK data=512:3742ff0d xb=512 @1242.223";
    "programs | read #1 block 1: OK data=52:b4dc6bae xb=52 @1242.993";
    "programs | read #1 block 2: end of file xb=0 @1243.763";
    "programs | read #1 block -1: invalid instance xb=0 @1244.533";
    "programs | write #1: no permission xb=0 @1245.303";
    "programs | read #1 block 0: OK data=512:3742ff0d xb=512 @1246.073";
    "programs | query #1: OK directory \"[programs]\" size=564 owner=\"system\" created=0.000 modified=0.000 writable=true instance=1 attrs=[] xb=0 @1246.843";
    "programs | release #1: OK xb=0 @1247.613";
    "programs | release #1: invalid instance xb=0 @1248.383";
    "programs | read #1 block 0: invalid instance xb=0 @1249.153";
    "programs | query #1: invalid instance xb=0 @1249.923";
    "programs | write #1: invalid instance xb=0 @1250.693";
    "programs | query #999: invalid instance xb=0 @1251.463";
    "programs | release #999: invalid instance xb=0 @1252.233";
    "programs | ids opened: 1";
    "exceptions | open \"\" dir: OK instance=1 size=1044 block=512 xb=0 @1264.723";
    "exceptions | read #1 block 0: OK data=512:a227446e xb=512 @1265.493";
    "exceptions | read #1 block 1: OK data=512:e8557f37 xb=512 @1266.263";
    "exceptions | read #1 block 2: OK data=20:b298f2f9 xb=20 @1267.033";
    "exceptions | read #1 block 3: end of file xb=0 @1267.803";
    "exceptions | read #1 block -1: invalid instance xb=0 @1268.573";
    "exceptions | write #1: no permission xb=0 @1269.343";
    "exceptions | read #1 block 0: OK data=512:a227446e xb=512 @1270.113";
    "exceptions | query #1: OK directory \"[exceptions]\" size=1044 owner=\"system\" created=0.000 modified=0.000 writable=true instance=1 attrs=[] xb=0 @1270.883";
    "exceptions | release #1: OK xb=0 @1271.653";
    "exceptions | release #1: invalid instance xb=0 @1272.423";
    "exceptions | read #1 block 0: invalid instance xb=0 @1273.193";
    "exceptions | query #1: invalid instance xb=0 @1273.963";
    "exceptions | write #1: invalid instance xb=0 @1274.733";
    "exceptions | query #999: invalid instance xb=0 @1275.503";
    "exceptions | release #999: invalid instance xb=0 @1276.273";
    "exceptions | ids opened: 1";
    "printer | open \"report.txt\" read: no permission xb=0 @1279.879";
    "printer | open \"report.txt\" write: OK instance=1 size=0 block=512 xb=0 @1283.486";
    "printer | write #1: OK count=54 xb=0 @1286.046";
    "printer | write #1: OK count=54 xb=0 @1288.606";
    "printer | write #1: OK count=54 xb=0 @1291.166";
    "printer | write #1: OK count=54 xb=0 @1293.726";
    "printer | write #1: OK count=54 xb=0 @1296.286";
    "printer | write #1: OK count=54 xb=0 @1298.846";
    "printer | write #1: OK count=54 xb=0 @1301.406";
    "printer | write #1: OK count=54 xb=0 @1303.966";
    "printer | write #1: OK count=54 xb=0 @1306.526";
    "printer | write #1: OK count=54 xb=0 @1309.086";
    "printer | write #1: OK count=54 xb=0 @1311.646";
    "printer | write #1: OK count=54 xb=0 @1314.206";
    "printer | write #1: OK count=54 xb=0 @1316.766";
    "printer | write #1: OK count=54 xb=0 @1319.326";
    "printer | open \"memo.txt\" write: OK instance=2 size=0 block=512 xb=0 @1322.927";
    "printer | open \"\" dir: OK instance=3 size=112 block=512 xb=0 @1325.727";
    "printer | read #1 block 0: OK data=512:6ec1670a xb=512 @1330.313";
    "printer | read #1 block 1: OK data=244:54be3890 xb=244 @1334.183";
    "printer | read #1 block 2: end of file xb=0 @1336.743";
    "printer | read #1 block -1: invalid instance xb=0 @1339.303";
    "printer | write #1: OK count=13 xb=0 @1341.863";
    "printer | read #1 block 0: OK data=512:6ec1670a xb=512 @1346.449";
    "printer | query #1: OK printer-job \"report.txt\" size=769 owner=\"system\" created=1282.206 modified=0.000 writable=true instance=- attrs=[state=spooling] xb=0 @1349.009";
    "printer | read #2 block 0: end of file xb=0 @1351.569";
    "printer | read #2 block -1: invalid instance xb=0 @1354.129";
    "printer | write #2: OK count=13 xb=0 @1356.689";
    "printer | read #2 block 0: OK data=13:3d3e1507 xb=13 @1359.943";
    "printer | query #2: OK printer-job \"memo.txt\" size=13 owner=\"system\" created=1321.647 modified=0.000 writable=true instance=- attrs=[state=spooling] xb=0 @1362.503";
    "printer | read #3 block 0: OK data=112:4103530d xb=112 @1366.022";
    "printer | read #3 block 1: end of file xb=0 @1368.582";
    "printer | read #3 block -1: invalid instance xb=0 @1371.142";
    "printer | write #3: no permission xb=0 @1373.702";
    "printer | read #3 block 0: OK data=112:4103530d xb=112 @1377.221";
    "printer | query #3: OK directory \"[queue]\" size=112 owner=\"system\" created=0.000 modified=0.000 writable=true instance=3 attrs=[] xb=0 @1379.781";
    "printer | release #2: OK xb=0 @1382.341";
    "printer | write #2: invalid instance xb=0 @1384.901";
    "printer | release #1: OK xb=0 @1387.461";
    "printer | release #1: invalid instance xb=0 @1390.021";
    "printer | read #1 block 0: invalid instance xb=0 @1392.581";
    "printer | query #1: invalid instance xb=0 @1395.141";
    "printer | write #1: invalid instance xb=0 @1397.701";
    "printer | release #2: invalid instance xb=0 @1400.261";
    "printer | release #2: invalid instance xb=0 @1402.821";
    "printer | read #2 block 0: invalid instance xb=0 @1405.381";
    "printer | query #2: invalid instance xb=0 @1407.941";
    "printer | write #2: invalid instance xb=0 @1410.501";
    "printer | release #3: OK xb=0 @1413.061";
    "printer | release #3: invalid instance xb=0 @1415.621";
    "printer | read #3 block 0: invalid instance xb=0 @1418.181";
    "printer | query #3: invalid instance xb=0 @1420.741";
    "printer | write #3: invalid instance xb=0 @1423.301";
    "printer | query #999: invalid instance xb=0 @1425.861";
    "printer | release #999: invalid instance xb=0 @1428.421";
    "printer | ids opened: 1 2 3";
    "mail | open \"cheriton@su-score\" append: OK instance=1 size=0 block=2048 xb=0 @1431.926";
    "mail | write #1: OK count=112 xb=0 @1434.486";
    "mail | write #1: OK count=112 xb=0 @1437.046";
    "mail | write #1: OK count=112 xb=0 @1439.606";
    "mail | write #1: OK count=112 xb=0 @1442.166";
    "mail | write #1: OK count=112 xb=0 @1444.726";
    "mail | write #1: OK count=112 xb=0 @1447.286";
    "mail | write #1: OK count=112 xb=0 @1449.846";
    "mail | write #1: OK count=112 xb=0 @1452.406";
    "mail | write #1: OK count=112 xb=0 @1454.966";
    "mail | write #1: OK count=112 xb=0 @1457.526";
    "mail | write #1: OK count=112 xb=0 @1460.086";
    "mail | write #1: OK count=112 xb=0 @1462.646";
    "mail | write #1: OK count=112 xb=0 @1465.206";
    "mail | write #1: OK count=112 xb=0 @1467.766";
    "mail | write #1: OK count=112 xb=0 @1470.326";
    "mail | write #1: OK count=112 xb=0 @1472.886";
    "mail | write #1: OK count=112 xb=0 @1475.446";
    "mail | write #1: OK count=112 xb=0 @1478.006";
    "mail | write #1: OK count=112 xb=0 @1480.566";
    "mail | write #1: OK count=112 xb=0 @1483.126";
    "mail | write #1: OK count=112 xb=0 @1485.686";
    "mail | write #1: OK count=112 xb=0 @1488.246";
    "mail | read #1 block 0: no permission xb=0 @1490.806";
    "mail | open \"cheriton@su-score\" read: OK instance=2 size=2771 block=2048 xb=0 @1494.311";
    "mail | open \"\" dir: OK instance=3 size=47 block=2048 xb=0 @1497.111";
    "mail | read #1 block 0: no permission xb=0 @1499.671";
    "mail | read #1 block -1: no permission xb=0 @1502.231";
    "mail | write #1: OK count=13 xb=0 @1504.791";
    "mail | read #1 block 0: no permission xb=0 @1507.351";
    "mail | query #1: OK mailbox \"cheriton@su-score\" size=23 owner=\"system\" created=1430.646 modified=0.000 writable=true instance=- attrs=[] xb=0 @1509.911";
    "mail | read #2 block 0: OK data=2048:56701315 xb=2048 @1518.593";
    "mail | read #2 block 1: OK data=723:69e6ac63 xb=723 @1523.741";
    "mail | read #2 block 2: end of file xb=0 @1526.301";
    "mail | read #2 block -1: invalid instance xb=0 @1528.861";
    "mail | write #2: no permission xb=0 @1531.421";
    "mail | read #2 block 0: OK data=2048:56701315 xb=2048 @1540.102";
    "mail | query #2: OK mailbox \"cheriton@su-score\" size=2771 owner=\"system\" created=0.000 modified=0.000 writable=true instance=2 attrs=[] xb=0 @1542.662";
    "mail | read #3 block 0: OK data=47:886663bc xb=47 @1546.007";
    "mail | read #3 block 1: end of file xb=0 @1548.567";
    "mail | read #3 block -1: invalid instance xb=0 @1551.127";
    "mail | write #3: no permission xb=0 @1553.687";
    "mail | read #3 block 0: OK data=47:886663bc xb=47 @1557.033";
    "mail | query #3: OK directory \"[mail]\" size=47 owner=\"system\" created=0.000 modified=0.000 writable=true instance=3 attrs=[] xb=0 @1559.593";
    "mail | release #1: OK xb=0 @1562.153";
    "mail | release #1: invalid instance xb=0 @1564.713";
    "mail | read #1 block 0: invalid instance xb=0 @1567.273";
    "mail | query #1: invalid instance xb=0 @1569.833";
    "mail | write #1: invalid instance xb=0 @1572.393";
    "mail | release #2: OK xb=0 @1574.953";
    "mail | release #2: invalid instance xb=0 @1577.513";
    "mail | read #2 block 0: invalid instance xb=0 @1580.073";
    "mail | query #2: invalid instance xb=0 @1582.633";
    "mail | write #2: invalid instance xb=0 @1585.193";
    "mail | release #3: OK xb=0 @1587.753";
    "mail | release #3: invalid instance xb=0 @1590.313";
    "mail | read #3 block 0: invalid instance xb=0 @1592.873";
    "mail | query #3: invalid instance xb=0 @1595.433";
    "mail | write #3: invalid instance xb=0 @1597.993";
    "mail | query #999: invalid instance xb=0 @1600.553";
    "mail | release #999: invalid instance xb=0 @1603.113";
    "mail | ids opened: 1 2 3";
    "internet | open \"score:23\" write: OK instance=2 size=0 block=512 xb=0 @1606.714";
    "internet | write #2: OK count=73 xb=0 @1609.274";
    "internet | write #2: OK count=73 xb=0 @1611.834";
    "internet | write #2: OK count=73 xb=0 @1614.394";
    "internet | write #2: OK count=73 xb=0 @1616.954";
    "internet | write #2: OK count=73 xb=0 @1619.514";
    "internet | write #2: OK count=73 xb=0 @1622.074";
    "internet | write #2: OK count=73 xb=0 @1624.634";
    "internet | write #2: OK count=73 xb=0 @1627.194";
    "internet | write #2: OK count=73 xb=0 @1629.754";
    "internet | open \"score:23\" read: OK instance=3 size=657 block=512 xb=0 @1833.355";
    "internet | open \"sumex:25\" write: OK instance=5 size=0 block=512 xb=0 @1836.957";
    "internet | open \"\" dir: OK instance=6 size=113 block=512 xb=0 @1839.757";
    "internet | read #2 block 0: OK data=512:02d29b00 xb=512 @1844.342";
    "internet | read #2 block 1: OK data=145:fe618f37 xb=145 @1847.949";
    "internet | read #2 block 2: end of file xb=0 @1850.509";
    "internet | read #2 block -1: invalid instance xb=0 @1853.069";
    "internet | write #2: OK count=13 xb=0 @1855.629";
    "internet | read #2 block 0: OK data=512:02d29b00 xb=512 @1860.214";
    "internet | query #2: OK tcp-connection \"score:23\" size=670 owner=\"system\" created=1605.434 modified=0.000 writable=true instance=1 attrs=[state=established] xb=0 @1862.774";
    "internet | read #3 block 0: OK data=512:02d29b00 xb=512 @1867.359";
    "internet | read #3 block 1: OK data=145:fe618f37 xb=145 @1870.966";
    "internet | read #3 block 2: end of file xb=0 @1873.526";
    "internet | read #3 block -1: invalid instance xb=0 @1876.086";
    "internet | write #3: OK count=13 xb=0 @1878.646";
    "internet | read #3 block 0: OK data=512:02d29b00 xb=512 @1883.231";
    "internet | query #3: OK tcp-connection \"score:23\" size=683 owner=\"system\" created=1605.434 modified=0.000 writable=true instance=1 attrs=[state=established] xb=0 @1885.791";
    "internet | read #6 block 0: OK data=113:1291944d xb=113 @1889.313";
    "internet | read #6 block 1: end of file xb=0 @1891.873";
    "internet | read #6 block -1: invalid instance xb=0 @1894.433";
    "internet | write #6: no permission xb=0 @1896.993";
    "internet | read #6 block 0: OK data=113:1291944d xb=113 @1900.514";
    "internet | query #6: OK directory \"[internet]\" size=113 owner=\"system\" created=0.000 modified=0.000 writable=true instance=6 attrs=[] xb=0 @1903.074";
    "internet | remove sumex:25: OK xb=0 @1906.675";
    "internet | read #5 block 0: end of file xb=0 @1909.235";
    "internet | read #5 block -1: invalid instance xb=0 @1911.795";
    "internet | write #5: no permission xb=0 @1914.355";
    "internet | read #5 block 0: end of file xb=0 @1916.915";
    "internet | query #5: OK tcp-connection \"sumex:25\" size=0 owner=\"system\" created=1835.677 modified=0.000 writable=true instance=4 attrs=[state=closed] xb=0 @1919.475";
    "internet | release #2: OK xb=0 @1922.035";
    "internet | release #2: invalid instance xb=0 @1924.595";
    "internet | read #2 block 0: invalid instance xb=0 @1927.155";
    "internet | query #2: invalid instance xb=0 @1929.715";
    "internet | write #2: invalid instance xb=0 @1932.275";
    "internet | release #3: OK xb=0 @1934.835";
    "internet | release #3: invalid instance xb=0 @1937.395";
    "internet | read #3 block 0: invalid instance xb=0 @1939.955";
    "internet | query #3: invalid instance xb=0 @1942.515";
    "internet | write #3: invalid instance xb=0 @1945.075";
    "internet | release #5: OK xb=0 @1947.635";
    "internet | release #5: invalid instance xb=0 @1950.195";
    "internet | read #5 block 0: invalid instance xb=0 @1952.755";
    "internet | query #5: invalid instance xb=0 @1955.315";
    "internet | write #5: invalid instance xb=0 @1957.875";
    "internet | release #6: OK xb=0 @1960.435";
    "internet | release #6: invalid instance xb=0 @1962.995";
    "internet | read #6 block 0: invalid instance xb=0 @1965.555";
    "internet | query #6: invalid instance xb=0 @1968.115";
    "internet | write #6: invalid instance xb=0 @1970.675";
    "internet | query #999: invalid instance xb=0 @1973.235";
    "internet | release #999: invalid instance xb=0 @1975.795";
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
