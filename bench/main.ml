(* The benchmark harness: regenerates every quantitative claim and
   figure of the paper (see DESIGN.md's experiment index).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe e1 e4 f1   -- run a subset

   Experiments: e1 .. e15, figures: f1 f2 f3 f4 (or "figs"), the
   multi-user soak: day, ablations, micro-benchmarks: micro.

   --json FILE additionally dumps every table and comparison printed,
   grouped by experiment title, as a JSON object to FILE. *)

let registry =
  [
    ("e1", E1_ipc.run);
    ("e2", E2_moveto.run);
    ("e3", E3_stream.run);
    ("e4", E4_open.run);
    ("e5", E5_footprint.run);
    ("e6", E6_comparison.run);
    ("e7", E7_group.run);
    ("e8", E8_cache.run);
    ("e9", E9_chaos.run);
    ("e10", E10_replication.run);
    ("e11", E11_domains.run);
    ("e12", E12_engine.run);
    ("e13", E13_overload.run);
    ("e14", E14_fabric.run);
    ("e15", E15_telemetry.run);
    ("figs", Figures.run);
    ("f1", Figures.f1);
    ("f2", Figures.f2);
    ("f3", Figures.f3);
    ("f4", Figures.f4);
    ("micro", Micro.run);
    ("day", Day_bench.run);
    ("ablations", Ablations.run);
    ("a1", Ablations.a1);
    ("a2", Ablations.a2);
    ("a3", Ablations.a3);
    ("a4", Ablations.a4);
  ]

let default =
  [
    "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
    "e12"; "e13"; "e14"; "e15"; "figs"; "ablations"; "day"; "micro";
  ]

(* Engine events executed so far in the process, E12's reference heap
   included. *)
let executed () =
  Vsim.Engine.global_executed () + Heap_engine.global_executed ()

(* Strip "--json FILE" from the argument list, returning the file.
   Giving --json twice is ambiguous (which file wins?), so it is an
   error rather than a silent overwrite. *)
let rec extract_json_file = function
  | [] -> (None, [])
  | "--json" :: file :: rest -> (
      match extract_json_file rest with
      | Some _, _ ->
          Fmt.epr "--json given twice@.";
          exit 1
      | None, names -> (Some file, names))
  | [ "--json" ] ->
      Fmt.epr "--json requires a file argument@.";
      exit 1
  | name :: rest ->
      let file, names = extract_json_file rest in
      (file, name :: names)

let () =
  let args =
    match Array.to_list Sys.argv with [] | [ _ ] -> [] | _ :: args -> args
  in
  let json_file, names = extract_json_file args in
  (* Open the output up-front so a bad path fails before, not after, a
     multi-minute run. *)
  let json_out =
    match json_file with
    | None -> None
    | Some file -> (
        match open_out file with
        | oc -> Some (file, oc)
        | exception Sys_error msg ->
            Fmt.epr "--json: %s@." msg;
            exit 1)
  in
  let requested = match names with [] -> default | _ -> names in
  (* Validate every name up front: an unknown experiment must fail
     before, not after, the known ones have run for minutes. *)
  (match List.filter (fun n -> not (List.mem_assoc n registry)) requested with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown experiment%s %s; known: %s@."
        (if List.length unknown = 1 then "" else "s")
        (String.concat " " (List.map (Fmt.str "%S") unknown))
        (String.concat " " (List.map fst registry));
      exit 1);
  (* Run experiments, stopping at the first failure. A mid-run exception
     used to be fatal-but-exit-0 with whatever JSON had accumulated on
     disk — which a CI gate would happily read as a complete pass. Now
     the run exits non-zero and the partial JSON is flagged
     "_incomplete" so no reader can mistake it for a full run. *)
  let failed =
    List.fold_left
      (fun failed name ->
        match failed with
        | Some _ -> failed
        | None -> (
            Vworkload.Tables.begin_experiment name;
            let wall0 = Unix.gettimeofday () in
            let events0 = executed () in
            match (List.assoc name registry) () with
            | () ->
                (* The experiment's meta entry is still current, so the
                   harness can stamp throughput accounting into it after
                   the fact: wall-clock and engine events attributable
                   to this experiment (every engine in the process
                   counts into the global tally). *)
                let wall_s = Unix.gettimeofday () -. wall0 in
                let events_executed = executed () - events0 in
                Vworkload.Tables.note_meta ~events_executed ();
                Vworkload.Tables.note_host "wall_s" (Vobs.Json.Float wall_s);
                Fmt.pr "[%s: %d events, %.2fs wall, %.0f events/s]@." name
                  events_executed wall_s
                  (if wall_s > 0.0 then float_of_int events_executed /. wall_s
                   else 0.0);
                None
            | exception e ->
                Fmt.epr "experiment %s raised: %s@." name (Printexc.to_string e);
                Some name))
      None requested
  in
  (match json_out with
  | None -> ()
  | Some (file, oc) ->
      let results = Vworkload.Tables.results_json () in
      let results =
        match (failed, results) with
        | None, r -> r
        | Some name, Vobs.Json.Obj fields ->
            Vobs.Json.Obj (("_incomplete", Vobs.Json.String name) :: fields)
        | Some name, other ->
            Vobs.Json.Obj
              [ ("_incomplete", Vobs.Json.String name); ("results", other) ]
      in
      output_string oc (Vobs.Json.to_string results);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "@.results written to %s@." file);
  match failed with Some _ -> exit 1 | None -> ()
