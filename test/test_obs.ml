(* Tests for the vobs observability subsystem: the JSON encoder, span
   trees across forwarding chains, histogram quantiles against the
   exact Series quantiles, and the invariant that tracing never
   perturbs simulated time. *)

module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Vio.Verr.pp e

(* --- JSON encoder --- *)

let test_json_encoder () =
  let open Vobs.Json in
  Alcotest.(check string)
    "scalars" {|{"a":1,"b":true,"c":null,"s":"x"}|}
    (to_string
       (Obj [ ("a", Int 1); ("b", Bool true); ("c", Null); ("s", String "x") ]));
  Alcotest.(check string)
    "escaping" {|"q\" b\\ n\n t\t u\u0001"|}
    (to_string (String "q\" b\\ n\n t\t u\001"));
  Alcotest.(check string) "integral float" "2.0" (to_string (Float 2.0));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string)
    "infinity is null" "null"
    (to_string (Float Float.infinity));
  Alcotest.(check string) "list" "[1,2.5,\"x\"]"
    (to_string (List [ Int 1; Float 2.5; String "x" ]));
  let obj = Obj [ ("k", Int 7) ] in
  Alcotest.(check bool) "member hit" true (member "k" obj = Some (Int 7));
  Alcotest.(check bool) "member miss" true (member "z" obj = None)

(* --- JSON parser: the inverse of the encoder --- *)

let test_json_parser () =
  let open Vobs.Json in
  let roundtrip j =
    match parse (to_string j) with
    | Ok j' ->
        Alcotest.(check string)
          (Fmt.str "roundtrip %s" (to_string j))
          (to_string j) (to_string j')
    | Error msg -> Alcotest.failf "parse %s: %s" (to_string j) msg
  in
  List.iter roundtrip
    [
      Null;
      Bool false;
      Int (-42);
      Float 2.0;
      Float 3.14159;
      String "q\" b\\ n\n t\t u\001";
      List [ Int 1; Float 2.5; String "x"; List []; Obj [] ];
      Obj [ ("a", Int 1); ("nested", Obj [ ("l", List [ Bool true ]) ]) ];
    ];
  (match parse "  { \"a\" : [ 1 , 2.5e1 ] } " with
  | Ok (Obj [ ("a", List [ Int 1; Float 25.0 ]) ]) -> ()
  | Ok j -> Alcotest.failf "whitespace/exponent parse: got %s" (to_string j)
  | Error msg -> Alcotest.failf "whitespace/exponent parse: %s" msg);
  List.iter
    (fun bad ->
      match parse bad with
      | Ok j -> Alcotest.failf "accepted %S as %s" bad (to_string j)
      | Error (_ : string) -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "tru" ]

(* --- span tree across a forwarded open --- *)

(* Chain fs0:/hop -> fs1:/hop -> fs2:/target.dat, then open
   "[fs0]hop/hop/target.dat": the trace must contain the client root,
   the prefix-server hop, and one span per file server, parent links
   following the forwarding chain and index ranges abutting. *)
let test_span_tree_forwarded_open () =
  let t = Scenario.build ~workstations:1 ~file_servers:3 ~tracing:true () in
  let trace_id = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         for i = 0 to 1 do
           let next =
             File_server.spec (Scenario.file_server t (i + 1))
               ~context:Context.Well_known.default
           in
           ok_exn "link" (Runtime.link env (Fmt.str "[fs%d]hop" i) ~target:next)
         done;
         ok_exn "write"
           (Runtime.write_file env "[fs2]target.dat" (Bytes.of_string "t"));
         let inst =
           ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]hop/hop/target.dat")
         in
         (match Vobs.Hub.last_trace t.Scenario.obs with
         | Some id -> trace_id := id
         | None -> Alcotest.fail "no trace started");
         ok_exn "release" (Vio.Client.release self inst)));
  Scenario.run t;
  let spans = Vobs.Hub.trace_spans t.Scenario.obs !trace_id in
  List.iter
    (fun s ->
      Alcotest.(check bool) "wait >= 0" true (s.Vobs.Span.queue_wait >= 0.0);
      Alcotest.(check bool) "service >= 0" true (Vobs.Span.service_ms s >= 0.0))
    spans;
  match spans with
  | [ root; prefix; fs0; fs1; fs2 ] ->
      let open Vobs.Span in
      Alcotest.(check string) "root op" "client:Open" root.op;
      Alcotest.(check int) "root is root" 0 root.parent_id;
      Alcotest.(check string) "prefix host" "ws0" prefix.host;
      Alcotest.(check int) "prefix parent" root.span_id prefix.parent_id;
      Alcotest.(check string) "prefix outcome" "forward" prefix.outcome;
      List.iter2
        (fun (host, parent) span ->
          Alcotest.(check string) "hop host" host span.host;
          Alcotest.(check int) "hop parent" parent.span_id span.parent_id)
        [ ("fs0", prefix); ("fs1", fs0); ("fs2", fs1) ]
        [ fs0; fs1; fs2 ];
      Alcotest.(check string) "fs0 forwards" "forward" fs0.outcome;
      Alcotest.(check string) "fs1 forwards" "forward" fs1.outcome;
      Alcotest.(check string) "fs2 answers" (Reply.to_string Reply.Ok) fs2.outcome;
      (* "[fs0]hop/hop/target.dat": indexes 0 )[=5 hop/=9 hop/=13. Each
         hop resumes where the previous one stopped. *)
      Alcotest.(check (list (pair int int)))
        "index ranges"
        [ (0, 5); (5, 9); (9, 13); (13, 13) ]
        (List.map
           (fun s -> (s.index_from, s.index_to))
           [ prefix; fs0; fs1; fs2 ])
  | spans ->
      Alcotest.failf "expected 5 spans (root, prefix, 3 servers), got %d:@.%a"
        (List.length spans) Vobs.Export.pp_timeline spans

(* The mail server, which interprets the whole remainder itself, still
   opens its hop's span and counts its requests like every CSNH
   server. *)
let test_mail_server_spans () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 ~tracing:true () in
  let trace_id = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         let deliver =
           ok_exn "deliver"
             (Runtime.open_ env ~mode:Vmsg.Append "[mail]cheriton@su-score")
         in
         ok_exn "release delivery" (Vio.Client.release self deliver);
         let fetch =
           ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[mail]cheriton@su-score")
         in
         (match Vobs.Hub.last_trace t.Scenario.obs with
         | Some id -> trace_id := id
         | None -> Alcotest.fail "no trace started");
         ok_exn "release" (Vio.Client.release self fetch)));
  Scenario.run t;
  (match Vobs.Hub.trace_spans t.Scenario.obs !trace_id with
  | [ root; prefix; mail ] ->
      let open Vobs.Span in
      Alcotest.(check string) "root op" "client:Open" root.op;
      Alcotest.(check int) "prefix parent" root.span_id prefix.parent_id;
      Alcotest.(check string) "prefix forwards" "forward" prefix.outcome;
      Alcotest.(check string) "mail host" "mailhost" mail.host;
      Alcotest.(check int) "mail parent" prefix.span_id mail.parent_id;
      Alcotest.(check string) "mail answers" (Reply.to_string Reply.Ok)
        mail.outcome
  | spans ->
      Alcotest.failf "expected 3 spans (root, prefix, mail), got %d:@.%a"
        (List.length spans) Vobs.Export.pp_timeline spans);
  let count op =
    Vobs.Metrics.counter_value
      (Vobs.Hub.metrics t.Scenario.obs)
      ~host:"mailhost" ~server:"mail-server" ~op
  in
  Alcotest.(check int) "Opens counted" 2 (count "Open");
  Alcotest.(check int) "releases counted" 2 (count "ReleaseInstance")

(* The program manager and the prefix server count every request they
   answer by its op name, as the mail server does above: RunProgram, and
   the InverseMapContext a pwd sends, which carries no CSname. *)
let test_other_requests_counted () =
  let t = Scenario.build ~workstations:1 ~file_servers:1 ~tracing:true () in
  (match
     Vservices.Program_manager.install_image (Scenario.file_server t 0)
       ~name:"hello" ~image:(Bytes.make 64 'h')
   with
  | Ok () -> ()
  | Error code -> Alcotest.failf "install: %s" (Reply.to_string code));
  let pm =
    Vservices.Program_manager.pid (Scenario.workstation t 0).Scenario.ws_programs
  in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         ignore (ok_exn "pwd" (Runtime.current_context_name env));
         let run =
           Vmsg.request
             ~payload:(Vmsg.P_run { program = "hello"; argument = "" })
             Vmsg.Op.run_program
         in
         ignore (ok_exn "run" (Vio.Client.transact self ~server:pm run))));
  Scenario.run t;
  let count ~server op =
    Vobs.Metrics.counter_value
      (Vobs.Hub.metrics t.Scenario.obs)
      ~host:"ws0" ~server ~op
  in
  Alcotest.(check int) "RunProgram counted" 1
    (count ~server:"program-manager" "RunProgram");
  Alcotest.(check int) "InverseMapContext counted" 1
    (count ~server:"ws0-prefix-server" "InverseMapContext")

(* The timeline renderer shows one line per span, children indented. *)
let test_timeline_render () =
  let t = Scenario.build ~workstations:1 ~file_servers:2 ~tracing:true () in
  let trace_id = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         ok_exn "write" (Runtime.write_file env "[fs1]a.txt" (Bytes.of_string "x"));
         (match Vobs.Hub.last_trace t.Scenario.obs with
         | Some id -> trace_id := id
         | None -> Alcotest.fail "no trace")));
  Scenario.run t;
  let spans = Vobs.Hub.trace_spans t.Scenario.obs !trace_id in
  let out = Fmt.str "%a" Vobs.Export.pp_timeline spans in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
  Alcotest.(check bool) "root unindented" true
    (String.length (List.hd lines) > 0 && (List.hd lines).[0] <> ' ')

(* --- histogram quantiles vs exact Series quantiles --- *)

let test_histogram_vs_series () =
  let h = Vobs.Histogram.create () in
  let series = Vsim.Stats.Series.create "samples" in
  let prng = Vsim.Prng.create ~seed:7 in
  let samples =
    List.init 500 (fun _ -> Vsim.Prng.float prng *. 120.0)
  in
  List.iter
    (fun x ->
      Vobs.Histogram.observe h x;
      Vsim.Stats.Series.add series x)
    samples;
  Alcotest.(check int)
    "count" (Vsim.Stats.Series.count series)
    (Vobs.Histogram.count h);
  let smin = List.fold_left min infinity samples in
  let smax = List.fold_left max neg_infinity samples in
  Alcotest.(check (float 1e-9)) "min" smin (Vobs.Histogram.min_ h);
  Alcotest.(check (float 1e-9)) "max" smax (Vobs.Histogram.max_ h);
  let bounds = Vobs.Histogram.default_bounds in
  (* The histogram estimate must land inside the bucket that holds the
     exact quantile — that is the resolution the bucketing promises. *)
  List.iter
    (fun q ->
      let exact = Vsim.Stats.Series.quantile series q in
      let estimate = Vobs.Histogram.quantile h q in
      let b =
        let rec find i =
          if i >= Array.length bounds then i
          else if exact <= bounds.(i) then i
          else find (i + 1)
        in
        find 0
      in
      let lower = if b = 0 then smin else max smin bounds.(b - 1) in
      let upper = if b >= Array.length bounds then smax else min smax bounds.(b) in
      if estimate < lower -. 1e-9 || estimate > upper +. 1e-9 then
        Alcotest.failf "q=%.2f: estimate %.4f outside bucket [%.4f, %.4f] of exact %.4f"
          q estimate lower upper exact)
    [ 0.1; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ];
  (* Quantiles are monotone in q. *)
  let qs = [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ] in
  let vs = List.map (Vobs.Histogram.quantile h) qs in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "monotone" true (v >= prev -. 1e-9);
         v)
       neg_infinity vs)

(* --- metrics registry --- *)

let test_metrics_registry () =
  let m = Vobs.Metrics.create () in
  Vobs.Metrics.incr m ~host:"h" ~server:"s" ~op:"x";
  Vobs.Metrics.incr m ~by:4 ~host:"h" ~server:"s" ~op:"x";
  Alcotest.(check int) "counter" 5
    (Vobs.Metrics.counter_value m ~host:"h" ~server:"s" ~op:"x");
  Alcotest.(check int) "absent counter" 0
    (Vobs.Metrics.counter_value m ~host:"h" ~server:"s" ~op:"y");
  Vobs.Metrics.observe m ~host:"h" ~server:"s" ~op:"lat" 1.5;
  Vobs.Metrics.observe m ~host:"h" ~server:"s" ~op:"lat" 2.5;
  (match Vobs.Metrics.histogram m ~host:"h" ~server:"s" ~op:"lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "hist count" 2 (Vobs.Histogram.count h);
      Alcotest.(check (float 1e-9)) "hist sum" 4.0 (Vobs.Histogram.sum h));
  match Vobs.Json.member "counters" (Vobs.Metrics.to_json m) with
  | Some (Vobs.Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "counters JSON shape"

(* Random keyed recordings against a list model. Keys come from a small
   alphabet, so many differ in one field only, and "x" can be a host, a
   server and an op; each field is passed either as the shared literal
   or as a fresh copy, so lookups cannot lean on physical equality.
   [Add] counts in place behind a registered source, which every read
   must scrape in before it reports. A group mapping goes in part-way
   (ws0 and ws1 group as "ws", x has no group): from then on every
   recording also lands at its group and the fleet, where counters sum
   and gauges keep their peak. A second mapping may replace it later
   (ws0 alone, x alone, ws1 in no group), which every leaf must follow.
   With [fill], leaf keys made before the first mapping leave room for
   nine more under the cap, so later new leaf keys are refused, counted
   and still aggregated. *)
type mop =
  | Incr of (int * bool) * int
  | Gauge of (int * bool) * float
  | Observe of (int * bool) * float
  | Add of (int * bool) * int

let hosts = [| "ws0"; "ws1"; "x" |]
let servers = [| "x"; "prefix" |]
let ops = [| "lookup"; "forward"; "x" |]
let key_count = Array.length hosts * Array.length servers * Array.length ops

let key_strings (k, copy) =
  let pick a i =
    let s = a.(i mod Array.length a) in
    if copy then String.sub s 0 (String.length s) else s
  in
  ( pick hosts k,
    pick servers (k / Array.length hosts),
    pick ops (k / (Array.length hosts * Array.length servers)) )

let group_of = function "ws0" | "ws1" -> Some "ws" | _ -> None
let regroup_of = function "ws1" -> None | h -> Some h

let prop_metrics_match_model =
  let key = QCheck.Gen.(pair (int_bound (key_count - 1)) bool) in
  let gen_op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k by -> Incr (k, by)) key (int_range 1 3);
          map2 (fun k v -> Gauge (k, float_of_int v)) key (int_bound 9);
          map2
            (fun k v -> Observe (k, float_of_int v /. 4.0))
            key (int_bound 400);
          map2 (fun k by -> Add (k, by)) key (int_range 1 3);
        ])
  in
  let print_op =
    let key (k, copy) = Fmt.str "%d%s" k (if copy then "'" else "") in
    function
    | Incr (k, by) -> Fmt.str "incr %s by %d" (key k) by
    | Gauge (k, v) -> Fmt.str "gauge %s %g" (key k) v
    | Observe (k, v) -> Fmt.str "observe %s %g" (key k) v
    | Add (k, by) -> Fmt.str "add %s by %d" (key k) by
  in
  QCheck.Test.make ~name:"keyed metrics equal a list model" ~count:300
    (QCheck.make
       ~print:(fun (fill, group_at, regroup_at, l) ->
         Fmt.str "fill %b, grouped from step %d, regrouped from step %d: %s"
           fill group_at regroup_at
           (String.concat "; " (List.map print_op l)))
       QCheck.Gen.(
         quad
           (frequency [ (3, return false); (1, return true) ])
           (int_bound 80) (int_bound 80)
           (list_size (int_bound 80) gen_op)))
    (fun (fill, group_at, regroup_at, mops) ->
      let module M = Vobs.Metrics in
      let module H = Vobs.Histogram in
      let module J = Vobs.Json in
      let m = M.create () in
      let pending = ref [] in
      M.add_source m (fun m ->
          List.iter
            (fun ((host, server, op), by) -> M.incr ~by m ~host ~server ~op)
            (List.rev !pending);
          pending := []);
      let fillers = if fill then M.leaf_cap - 9 else 0 in
      for i = 1 to fillers do
        M.incr m ~host:(Fmt.str "fill%d" i) ~server:"x" ~op:"x"
      done;
      (* The model: instruments by (level, key), the leaf keys made, the
         group and fleet keys made, and the refused recordings. *)
      let counters = ref [] and gauges = ref [] and histograms = ref [] in
      let leaves = ref [] and aggregates = ref [] and dropped = ref 0 in
      let mapping = ref None in
      let targets ((host, server, op) as k) =
        let leaf =
          if List.mem k !leaves then [ (M.Leaf, k) ]
          else if
            Option.is_some !mapping
            && fillers + List.length !leaves >= M.leaf_cap
          then begin
            incr dropped;
            []
          end
          else begin
            leaves := k :: !leaves;
            [ (M.Leaf, k) ]
          end
        in
        match !mapping with
        | None -> leaf
        | Some group_of ->
            let up =
              (match group_of host with
              | Some g -> [ (M.Group, (g, server, op)) ]
              | None -> [])
              @ [ (M.Fleet, ("fleet", server, op)) ]
            in
            List.iter
              (fun t ->
                if not (List.mem t !aggregates) then
                  aggregates := t :: !aggregates)
              up;
            leaf @ up
      in
      let cell table init t =
        match List.assoc_opt t !table with
        | Some c -> c
        | None ->
            let c = init () in
            table := (t, c) :: !table;
            c
      in
      let bump k by =
        List.iter
          (fun t ->
            let r = cell counters (fun () -> ref 0) t in
            r := !r + by)
          (targets k)
      in
      let level_rows table level f =
        List.filter_map
          (fun ((l, (host, server, op)), v) ->
            if l = level then Some ({ M.host; server; op }, f v) else None)
          !table
        |> List.sort compare
      in
      let is_filler ((k : M.key), _) =
        String.length k.host > 4 && String.sub k.host 0 4 = "fill"
      in
      let store rows = List.filter (fun r -> not (is_filler r)) rows in
      let level_json level scope =
        let instrument (k : M.key) extra =
          J.Obj
            ([ (scope, J.String k.host); ("server", J.String k.server);
               ("op", J.String k.op) ]
            @ extra)
        in
        J.Obj
          [
            ( "counters",
              J.List
                (List.map
                   (fun (k, v) -> instrument k [ ("value", J.Int v) ])
                   (level_rows counters level ( ! ))) );
            ( "gauges",
              J.List
                (List.map
                   (fun (k, v) -> instrument k [ ("value", J.Float v) ])
                   (level_rows gauges level ( ! ))) );
            ( "histograms",
              J.List
                (List.map
                   (fun (k, h) -> instrument k [ ("histogram", H.to_json h) ])
                   (level_rows histograms level Fun.id)) );
          ]
      in
      let model_levels_json () =
        J.Obj
          [
            ( "key_count",
              J.Int (fillers + List.length !leaves + List.length !aggregates) );
            ("keys_dropped", J.Int !dropped);
            ("group", level_json M.Group "scope");
            ("fleet", level_json M.Fleet "scope");
          ]
      in
      let hist_json l =
        List.map (fun (k, h) -> (k, J.to_string (H.to_json h))) l
      in
      List.iteri
        (fun i mop ->
          if i = group_at then mapping := Some group_of
          else if i = regroup_at && i > group_at then
            mapping := Some regroup_of;
          if i = group_at || (i = regroup_at && i > group_at) then
            M.set_groups m !mapping;
          (match mop with
          | Incr (k, by) ->
              let host, server, op = key_strings k in
              M.incr ~by m ~host ~server ~op;
              bump (key_strings (fst k, false)) by
          | Add (k, by) ->
              (* Counted in place, as the kernel and the wire count: the
                 next read scrapes it in. *)
              pending := (key_strings k, by) :: !pending;
              bump (key_strings (fst k, false)) by
          | Gauge (k, v) ->
              let host, server, op = key_strings k in
              M.set_gauge m ~host ~server ~op v;
              List.iter
                (fun ((level, _) as t) ->
                  match List.assoc_opt t !gauges with
                  | Some r -> if level = M.Leaf || v > !r then r := v
                  | None -> gauges := (t, ref v) :: !gauges)
                (targets (key_strings (fst k, false)))
          | Observe (k, v) ->
              let host, server, op = key_strings k in
              M.observe m ~host ~server ~op v;
              List.iter
                (fun t -> H.observe (cell histograms (fun () -> H.create ()) t) v)
                (targets (key_strings (fst k, false))));
          let fail what =
            QCheck.Test.fail_reportf "after step %d (%s): %s differ" i
              (print_op mop) what
          in
          (* With fillers each reader walks four thousand keys, so
             those runs compare whole levels after the last step only. *)
          if (not fill) || i = List.length mops - 1 then
          List.iter
            (fun level ->
              let name = M.level_to_string level in
              if store (M.counters ~level m) <> level_rows counters level ( ! )
              then fail (name ^ " counters");
              if store (M.gauges ~level m) <> level_rows gauges level ( ! ) then
                fail (name ^ " gauges");
              if
                hist_json (store (M.histograms ~level m))
                <> hist_json (level_rows histograms level Fun.id)
              then fail (name ^ " histograms"))
            [ M.Leaf; M.Group; M.Fleet ];
          for k = 0 to key_count - 1 do
            let host, server, op = key_strings (k, k land 1 = 0) in
            let expected =
              match
                List.assoc_opt (M.Leaf, key_strings (k, false)) !counters
              with
              | Some r -> !r
              | None -> 0
            in
            if M.counter_value m ~host ~server ~op <> expected then
              fail "counter values"
          done;
          if
            (not fill)
            && J.to_string (M.to_json m)
               <> J.to_string (level_json M.Leaf "host")
          then fail "leaf JSON documents";
          if
            M.key_count m
            <> fillers + List.length !leaves + List.length !aggregates
          then fail "key counts";
          if M.keys_dropped m <> !dropped then fail "refused recordings";
          if
            ((not fill) || i = List.length mops - 1)
            && J.to_string (M.levels_to_json m)
               <> J.to_string (model_levels_json ())
          then fail "group and fleet JSON documents")
        mops;
      true)

(* --- tracing off leaves simulated time bit-identical --- *)

(* The same workload under tracing on/off must produce the exact same
   simulated latencies and final clock: observability is bookkeeping
   outside the simulation. *)
let run_timed_workload ~tracing =
  let t = Scenario.build ~workstations:2 ~file_servers:2 ~tracing () in
  let latencies = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         let eng = Runtime.engine env in
         let timed what f =
           let t0 = Vsim.Engine.now eng in
           ok_exn what (f ());
           latencies := (Vsim.Engine.now eng -. t0) :: !latencies
         in
         timed "write" (fun () ->
             Runtime.write_file env "[home]d.txt" (Bytes.of_string "determinism"));
         timed "read" (fun () -> Runtime.read_file env "[home]d.txt" |> Result.map ignore);
         timed "write fs1" (fun () ->
             Runtime.write_file env "[fs1]other.txt" (Bytes.of_string "x"));
         timed "read fs1" (fun () ->
             Runtime.read_file env "[fs1]other.txt" |> Result.map ignore);
         timed "ls" (fun () ->
             Runtime.list_directory env "[home]" |> Result.map ignore)));
  Scenario.run t;
  (List.rev !latencies, Vsim.Engine.now t.Scenario.engine)

let test_tracing_off_determinism () =
  let lat_off, end_off = run_timed_workload ~tracing:false in
  let lat_on, end_on = run_timed_workload ~tracing:true in
  Alcotest.(check int) "same op count" (List.length lat_off) (List.length lat_on);
  List.iteri
    (fun i (off, on) ->
      if not (Float.equal off on) then
        Alcotest.failf "op %d: %.17g ms untraced vs %.17g ms traced" i off on)
    (List.combine lat_off lat_on);
  if not (Float.equal end_off end_on) then
    Alcotest.failf "final clock: %.17g vs %.17g" end_off end_on

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json encoder" `Quick test_json_encoder;
        Alcotest.test_case "json parser roundtrip" `Quick test_json_parser;
        Alcotest.test_case "span tree across 3 forwards" `Quick
          test_span_tree_forwarded_open;
        Alcotest.test_case "timeline render" `Quick test_timeline_render;
        Alcotest.test_case "histogram vs series quantiles" `Quick
          test_histogram_vs_series;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        QCheck_alcotest.to_alcotest prop_metrics_match_model;
        Alcotest.test_case "tracing off is deterministic" `Quick
          test_tracing_off_determinism;
        Alcotest.test_case "mail server spans" `Quick test_mail_server_spans;
        Alcotest.test_case "other requests counted" `Quick
          test_other_requests_counted;
      ] );
  ]
