(* Smoke test of the benchmark, run by `dune runtest`:

     smoke.exe MAIN_EXE BENCHMARK.json

   Runs all four workloads at 1% scale and checks that the result
   document parses, that every metric BENCHMARK.json names is present
   with its unit for every workload, and that the output checks passed.
   Then runs ipc-fabric with a wrong expected echo injected, which must
   fail the run. *)

module Json = Vobs.Json

let failures = ref 0

let fail fmt =
  Fmt.kstr
    (fun s ->
      incr failures;
      prerr_endline ("smoke: " ^ s))
    fmt

let run main args =
  let args = "--scale" :: "0.01" :: "--seconds" :: "0" :: args in
  let ic = Unix.open_process_args_in main (Array.of_list (main :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let parse_file file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> Some j
  | Error e ->
      fail "%s does not parse: %s" file e;
      None

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let str key j =
  match Json.member key j with Some (Json.String s) -> Some s | _ -> None

let entries section b f =
  match Json.member section b with
  | Some (Json.List l) -> List.filter_map f l
  | _ -> []

let check_result_line out =
  let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
  match Json.parse last with
  | Ok j ->
      List.iter
        (fun k -> if Json.member k j = None then fail "last line lacks %S" k)
        [ "correct"; "attempted"; "failed"; "metrics" ]
  | Error e -> fail "last line is not JSON: %s" e

let () =
  let main = Sys.argv.(1) and bench = Sys.argv.(2) in
  let main =
    if Filename.is_relative main then Filename.concat (Sys.getcwd ()) main
    else main
  in
  let b = match parse_file bench with Some b -> b | None -> exit 1 in
  let metric m =
    match (str "name" m, str "unit" m) with
    | Some n, Some u -> Some (n, u)
    | _ -> None
  in
  let expected = entries "end_to_end" b metric @ entries "per_layer" b metric in
  let workloads = entries "workloads" b (str "name") in
  if expected = [] || workloads = [] then
    fail "%s names no metrics or workloads" bench;
  (match run main [ "--out"; "smoke.json" ] with
  | Unix.WEXITED 0, out -> (
      check_result_line out;
      match parse_file "smoke.json" with
      | None -> ()
      | Some doc ->
          if member [ "valid" ] doc <> Some (Json.Bool true) then
            fail "output checks failed";
          List.iter
            (fun w ->
              List.iter
                (fun (name, unit) ->
                  let path = [ "workloads"; w; "metrics"; name; "unit" ] in
                  match member path doc with
                  | Some (Json.String u) when u = unit -> ()
                  | Some _ -> fail "%s %s: wrong unit" w name
                  | None -> fail "%s %s: missing" w name)
                expected)
            workloads)
  | _, out -> fail "benchmark run failed:\n%s" out);
  let bad =
    [ "--trace"; "0"; "--inject-bad-echo"; "--out"; "smoke-bad.json" ]
  in
  (match run main (bad @ [ "ipc-fabric" ]) with
  | Unix.WEXITED 0, _ -> fail "a wrong echo did not fail the run"
  | _ -> (
      match parse_file "smoke-bad.json" with
      | Some doc when member [ "valid" ] doc = Some (Json.Bool false) -> ()
      | Some _ | None -> fail "a wrong echo did not mark the result invalid"));
  if !failures > 0 then exit 1
