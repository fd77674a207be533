(* Ablation benchmarks for the design choices DESIGN.md calls out.

   A1: open latency vs name depth — per-component interpretation cost.
   A2: cross-server forwarding chains — first-use vs repeated-use cost
       of deep multi-server names (resolve-once amortization, §4.2's
       "the pid is acquired when the file is opened" pattern).
   A3: server saturation — aggregate open throughput vs client count.
   A4: loss resilience — transaction latency vs frame-loss probability
       (kernel retransmission at work). *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Tables = Vworkload.Tables
open Vnaming

let ok = Rig.ok

(* --- A1: depth sweep --- *)

let a1 () =
  Tables.print_title "A1: Open latency vs name depth (per-component cost)";
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let fs = File_server.fs (Scenario.file_server t 0) in
  (* Build nested directories d/d/d/... with a leaf file at each depth. *)
  let rec build_depth dir depth =
    if depth > 8 then ()
    else begin
      (match Fs.create_file fs ~dir ~owner:"bench" "leaf.dat" with
      | Ok ino -> (
          match Fs.write_file fs ~ino (Bytes.of_string "x") with
          | Ok () -> ()
          | Error _ -> failwith "A1 write")
      | Error _ -> failwith "A1 create");
      match Fs.mkdir fs ~dir ~owner:"bench" "d" with
      | Ok sub -> build_depth sub (depth + 1)
      | Error _ -> failwith "A1 mkdir"
    end
  in
  build_depth Fs.root_ino 1;
  let rows = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         let eng = Runtime.engine env in
         for depth = 1 to 8 do
           let name =
             String.concat "/" (List.init (depth - 1) (fun _ -> "d") @ [ "leaf.dat" ])
           in
           let t0 = Vsim.Engine.now eng in
           let i = ok "A1 open" (Runtime.open_ env ~mode:Vmsg.Read ("[fs0]" ^ name)) in
           let elapsed = Vsim.Engine.now eng -. t0 in
           ok "A1 release" (Vio.Client.release self i);
           rows :=
             [ string_of_int depth; Fmt.str "%.2f" elapsed ] :: !rows
         done));
  Scenario.run t;
  Tables.print_table ~header:[ "components"; "open via prefix (ms)" ]
    (List.rev !rows);
  Fmt.pr
    "@.each additional component adds one in-core directory lookup\n\
     (%.2f ms of simulated 68000 time), not another server round trip@."
    Vnet.Calibration.component_lookup_cpu

(* --- A2: forwarding chains --- *)

let a2 () =
  Tables.print_title
    "A2: names crossing k servers — forwarding vs resolve-once-then-open";
  let hops = 4 in
  let t = Scenario.build ~workstations:1 ~file_servers:(hops + 1) () in
  (* Chain: fs0:/hop -> fs1:/hop -> ... -> fs<k>:/target.dat *)
  let rows = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         let eng = Runtime.engine env in
         for i = 0 to hops - 1 do
           let next =
             File_server.spec (Scenario.file_server t (i + 1))
               ~context:Context.Well_known.default
           in
           ok "A2 link" (Runtime.link env (Fmt.str "[fs%d]hop" i) ~target:next)
         done;
         for k = 0 to hops do
           ok "A2 write"
             (Runtime.write_file env
                (Fmt.str "[fs%d]target.dat" k)
                (Bytes.of_string "t"))
         done;
         let frames () = (E.counters t.Scenario.net).E.frames_sent in
         for k = 0 to hops do
           let name =
             "[fs0]" ^ String.concat "" (List.init k (fun _ -> "hop/")) ^ "target.dat"
           in
           (* One forwarded open straight through the chain. *)
           let f0 = frames () in
           let t0 = Vsim.Engine.now eng in
           let i = ok "A2 open" (Runtime.open_ env ~mode:Vmsg.Read name) in
           let fwd_ms = Vsim.Engine.now eng -. t0 in
           let fwd_frames = frames () - f0 in
           ok "A2 release" (Vio.Client.release self i);
           (* Resolve the chain once, then open directly in the resolved
              context: the repeated-use pattern. *)
           let dir_name =
             "[fs0]" ^ String.concat "/" (List.init k (fun _ -> "hop"))
           in
           Runtime.set_current_context env
             (ok "A2 resolve" (Runtime.resolve env dir_name));
           let f1 = frames () in
           let t1 = Vsim.Engine.now eng in
           let i =
             ok "A2 direct open"
               (Runtime.open_ env ~mode:Vmsg.Read "target.dat")
           in
           let direct_ms = Vsim.Engine.now eng -. t1 in
           let direct_frames = frames () - f1 in
           ok "A2 release" (Vio.Client.release self i);
           rows :=
             [
               string_of_int k;
               Fmt.str "%.2f" fwd_ms;
               string_of_int fwd_frames;
               Fmt.str "%.2f" direct_ms;
               string_of_int direct_frames;
             ]
             :: !rows
         done));
  Scenario.run t;
  Tables.print_table
    ~header:
      [
        "hops"; "forwarded open (ms)"; "frames"; "open in resolved ctx (ms)";
        "frames";
      ]
    (List.rev !rows);
  Fmt.pr
    "@.forwarding costs one extra server leg per hop but stays a single\n\
     transaction; resolving once and reusing the context pays the chain\n\
     only on first use — exactly the binding-at-open pattern of §4.2@."

(* --- A3: server saturation --- *)

let a3 () =
  Tables.print_title "A3: file-server saturation — open throughput vs clients";
  let rows = ref [] in
  List.iter
    (fun clients ->
      let t = Scenario.build ~workstations:1 ~file_servers:1 () in
      let fs = File_server.fs (Scenario.file_server t 0) in
      (match Fs.create_file fs ~dir:Fs.root_ino ~owner:"bench" "shared.dat" with
      | Ok ino -> (
          match Fs.write_file fs ~ino (Bytes.of_string "s") with
          | Ok () -> ()
          | Error _ -> failwith "A3 write")
      | Error _ -> failwith "A3 create");
      let opens_per_client = 25 in
      let latencies = Vsim.Stats.Series.create "lat" in
      let t_start = ref nan and t_end = ref nan in
      for _ = 1 to clients do
        ignore
          (Scenario.spawn_client t ~ws:0 (fun self env ->
               let eng = Runtime.engine env in
               if Float.is_nan !t_start then t_start := Vsim.Engine.now eng;
               for _ = 1 to opens_per_client do
                 let t0 = Vsim.Engine.now eng in
                 let i =
                   ok "A3 open" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]shared.dat")
                 in
                 Vsim.Stats.Series.add latencies (Vsim.Engine.now eng -. t0);
                 ok "A3 release" (Vio.Client.release self i)
               done;
               t_end := Vsim.Engine.now eng))
      done;
      Scenario.run t;
      let total = float_of_int (clients * opens_per_client) in
      let wall = !t_end -. !t_start in
      rows :=
        [
          string_of_int clients;
          Fmt.str "%.0f" (total /. wall *. 1000.0);
          Fmt.str "%.2f" (Vsim.Stats.Series.mean latencies);
          Fmt.str "%.2f" (Vsim.Stats.Series.quantile latencies 0.95);
        ]
        :: !rows)
    [ 1; 2; 4; 8; 16 ];
  Tables.print_table
    ~header:[ "clients"; "opens/s"; "mean (ms)"; "p95 (ms)" ]
    (List.rev !rows);
  Fmt.pr
    "@.the single server process serializes requests: throughput saturates\n\
     and latency grows with queueing — the load a second file server (or a\n\
     server group, E7) absorbs@."

(* --- A4: loss resilience --- *)

let a4 () =
  Tables.print_title "A4: transaction latency under frame loss (retransmission)";
  let rows = ref [] in
  List.iter
    (fun loss ->
      let rig = Rig.make_raw () in
      E.set_loss_probability rig.net loss;
      let h1 = K.boot_host rig.domain ~name:"ws" 1 in
      let h2 = K.boot_host rig.domain ~name:"fs" 2 in
      let server =
        K.spawn h2 (fun self ->
            let rec loop () =
              let msg, sender = K.receive self in
              ignore (K.reply self ~to_:sender msg);
              loop ()
            in
            loop ())
      in
      let lat = Vsim.Stats.Series.create "lat" in
      let failures = ref 0 in
      let n = 60 in
      for i = 1 to n do
        ignore
          (K.spawn h1 (fun self ->
               Vsim.Proc.delay rig.eng (float_of_int (i * 7));
               let t0 = Vsim.Engine.now rig.eng in
               match K.send self server "ping" with
               | Ok _ -> Vsim.Stats.Series.add lat (Vsim.Engine.now rig.eng -. t0)
               | Error _ -> incr failures))
      done;
      Vsim.Engine.run rig.eng;
      rows :=
        [
          Fmt.str "%.0f%%" (loss *. 100.0);
          Fmt.str "%d/%d" (Vsim.Stats.Series.count lat) n;
          Fmt.str "%.2f" (Vsim.Stats.Series.mean lat);
          Fmt.str "%.2f" (Vsim.Stats.Series.quantile lat 0.95);
          Fmt.str "%.2f" (Vsim.Stats.Series.max_ lat);
        ]
        :: !rows;
      if loss = 0.3 then begin
        Fmt.pr "@.latency distribution at 30%% loss (ms):@.";
        Fmt.pr "%a" (Vsim.Stats.Series.pp_histogram ~buckets:8 ~bar_width:40) lat
      end)
    [ 0.0; 0.1; 0.3; 0.5 ];
  Tables.print_table
    ~header:[ "frame loss"; "completed"; "mean (ms)"; "p95 (ms)"; "max (ms)" ]
    (List.rev !rows);
  Fmt.pr
    "@.duplicate-suppressing retransmission keeps transactions at-most-once\n\
     and completing under loss, at the cost of retransmission-interval\n\
     latency tails@."

let run () =
  a1 ();
  a2 ();
  a3 ();
  a4 ()
