(* The bench-regression gate: compare a fresh `bench --json` dump
   against a committed baseline and fail on any difference.

     dune exec bench/compare.exe -- BASELINE.json FRESH.json
     dune exec bench/compare.exe -- --check FRESH.json

   The simulator reproduces every value it records bit-for-bit from a
   seed, so the rule is exact: outside each experiment's
   "_meta"."experiments".NAME."host" object, FRESH must equal BASELINE
   in every number (as the dump prints it, "%.12g"), every string,
   every key and every list length. Each difference is printed with its
   path and both values. The "host" objects hold what the host
   measured (wall clock, CPU time, rates over either): they are
   reported by the dump and never compared. Regenerating the baseline
   is the one way to bless an intended change.

   The --check form gates a run with no baseline at all. The nightly
   soak lane uses it: a 100k-host run has no pinned baseline to diff
   against, but a correctness violation at scale must still fail the
   job. Both forms fail when:

   - the fresh run is marked "_incomplete" (an experiment raised and
     bench/main exited non-zero — the JSON on disk is partial);
   - any "invariant_violations" list anywhere in the fresh run is
     non-empty (at-most-once, orphan instances, convergence, replica
     divergence);
   - any "breaches" list anywhere in the fresh run is non-empty (the
     SLO engine's multi-window burn-rate verdict: an experiment's
     availability or latency objective was burned through);
   - a comparison row with a numeric "paper" field breaks its rule
     against the paper (see [deviations] below), so regenerating the
     baseline cannot bless a figure that drifted from the paper.

   Both forms append a markdown summary (the differences, then a
   verdict line) to the file named by $GITHUB_STEP_SUMMARY when that
   variable is set (the GitHub Actions job-summary protocol), and print
   the same markdown to stdout when it is not.

   Exit 1 means the gate failed; exit 2 means it could not run (bad
   usage, unreadable or unparseable input). *)

module Json = Vobs.Json

let fail_usage () =
  Fmt.epr
    "usage: compare BASELINE.json FRESH.json@.       \
     compare --check FRESH.json@.";
  exit 2

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> contents
  | exception Sys_error msg ->
      Fmt.epr "compare: %s@." msg;
      exit 2

let load path =
  match Json.parse (read_file path) with
  | Ok json -> json
  | Error msg ->
      Fmt.epr "compare: %s: %s@." path msg;
      exit 2

(* --- paths --- *)

(* A path is a list of segments, innermost first: object keys, and for
   list elements a "label" or "factor" field when the element has one,
   else its position, so a printed path names the row it is in. *)
let element_key i = function
  | Json.Obj _ as o -> (
      match (Json.member "label" o, Json.member "factor" o) with
      | Some (Json.String l), _ -> "label=" ^ l
      | _, Some (Json.Int f) -> Fmt.str "factor=%d" f
      | _ -> string_of_int i)
  | _ -> string_of_int i

let show_path path = String.concat "/" (List.rev path)

(* Every non-empty list stored under [key] anywhere in the tree —
   "invariant_violations" and the SLO engine's "breaches" both gate
   this way. *)
let rec nonempty_lists ~key path acc json =
  match json with
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          match v with
          | Json.List (_ :: _ as vs) when k = key ->
              (show_path path, vs) :: acc
          | _ -> nonempty_lists ~key (k :: path) acc v)
        acc fields
  | Json.List items ->
      List.fold_left
        (fun (i, acc) item ->
          (i + 1, nonempty_lists ~key (element_key i item :: path) acc item))
        (0, acc) items
      |> snd
  | _ -> acc

(* --- the exact comparison --- *)

(* One difference: its path and the baseline's and the fresh run's
   side, [None] where the path is absent. *)
type difference = {
  path : string;
  base_v : string option;
  fresh_v : string option;
}

(* A missing or new subtree can be a whole experiment; print its
   start. *)
let show json =
  let s = Json.to_string json in
  if String.length s <= 120 then s else String.sub s 0 117 ^ "..."

(* The fields the rule compares: all but an experiment's host-measured
   values. A table may repeat a column name (A2 has two "frames"
   columns), so the n-th field named k is keyed "k#n" and pairs with
   the n-th one on the other side. *)
let compared_fields path fields =
  let fields =
    match path with
    | [ _name; "experiments"; "_meta" ] -> List.remove_assoc "host" fields
    | _ -> fields
  in
  let seen = Hashtbl.create 8 in
  List.map
    (fun (k, v) ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen k) in
      Hashtbl.replace seen k n;
      ((if n = 1 then k else Fmt.str "%s#%d" k n), v))
    fields

(* Walk both trees together: the number of scalar values compared,
   and the differences in document order. *)
let compare_trees baseline fresh =
  let compared = ref 0 and diffs = ref [] in
  let differ path base_v fresh_v =
    diffs := { path = show_path path; base_v; fresh_v } :: !diffs
  in
  let rec walk path base fresh =
    match (base, fresh) with
    | Json.Obj b, Json.Obj f ->
        let b = compared_fields path b and f = compared_fields path f in
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k f with
            | Some fv -> walk (k :: path) bv fv
            | None -> differ (k :: path) (Some (show bv)) None)
          b;
        List.iter
          (fun (k, fv) ->
            if not (List.mem_assoc k b) then
              differ (k :: path) None (Some (show fv)))
          f
    | Json.List b, Json.List f ->
        let nb = List.length b and nf = List.length f in
        if nb <> nf then
          differ path
            (Some (Fmt.str "%d element(s)" nb))
            (Some (Fmt.str "%d element(s)" nf));
        (* The common prefix still compares, so a diff shows the first
           element that moved. *)
        let rec pairs i b f =
          match (b, f) with
          | bv :: b, fv :: f ->
              walk (element_key i bv :: path) bv fv;
              pairs (i + 1) b f
          | _ -> ()
        in
        pairs 0 b f
    | _ ->
        incr compared;
        if Json.to_string base <> Json.to_string fresh then
          differ path (Some (show base)) (Some (show fresh))
  in
  walk [] baseline fresh;
  (!compared, List.rev !diffs)

(* --- the paper gate --- *)

(* How the measured figures of a row with a numeric "paper" field must
   stand against it. *)
type rule =
  | Within of float  (* |measured - paper| <= tolerance x paper *)
  | Bracket  (* the rule's rows, together, bracket the paper's figure *)
  | Agree of float  (* the rule's rows agree with each other *)
  | At_most  (* measured <= paper *)

(* Every row is held within 1 % of the paper except those EXPERIMENTS.md
   lists under "Known deviations": E2's load pays the final MoveTo ack,
   E3 implements the two ends of the paper's overlap and brackets it,
   E4's claim is that prefix overhead is an additive constant, and E5's
   2.6 KB of data is mostly reserved directory space, a bound live data
   stays under. Rows are named by experiment and label. *)
let deviations =
  [
    (("E2", "64 KB program load, 3 Mbit"), Within 0.02);
    (("E3", "per page, no read-ahead"), Bracket);
    (("E3", "per page, server read-ahead"), Bracket);
    (("E4", "added cost, server local"), Agree 0.01);
    (("E4", "added cost, server remote"), Agree 0.01);
    (("E5", "standard installation, live data"), At_most);
  ]

let describe = function
  | Within t -> Fmt.str "within %g %% of the paper" (100.0 *. t)
  | Bracket -> "the rule's rows bracket the paper"
  | Agree t -> Fmt.str "the rule's rows within %g %% of each other" (100.0 *. t)
  | At_most -> "at most the paper's figure"

(* A group of rows checked together: each [Within] row alone, the rows
   of one experiment sharing another rule together. [measured] is nan
   when the row has no number there, which breaks every rule. *)
type paper_row = {
  group : string;
  rule : rule;
  row_path : string;
  paper : float;
  measured : float;
}

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let paper_rows fresh =
  let row title i item =
    match Option.bind (Json.member "paper" item) number with
    | None -> None
    | Some paper ->
        let label =
          match Json.member "label" item with
          | Some (Json.String l) -> l
          | _ -> ""
        in
        let experiment = List.hd (String.split_on_char ':' title) in
        let rule =
          Option.value ~default:(Within 0.01)
            (List.assoc_opt (experiment, label) deviations)
        in
        let row_path = show_path [ element_key i item; title ] in
        let measured =
          Option.bind (Json.member "measured" item) number
          |> Option.value ~default:nan
        in
        let group =
          match rule with
          | Within _ | At_most -> row_path
          | Bracket | Agree _ -> title ^ "/" ^ describe rule
        in
        Some { group; rule; row_path; paper; measured }
  in
  match fresh with
  | Json.Obj experiments ->
      List.concat_map
        (function
          | title, Json.List items ->
              List.filter_map Fun.id (List.mapi (row title) items)
          | _ -> [])
        experiments
  | _ -> []

let holds rule rows =
  let ms = List.map (fun r -> r.measured) rows in
  let lo = List.fold_left Float.min infinity ms
  and hi = List.fold_left Float.max neg_infinity ms in
  match rule with
  | Within t ->
      List.for_all
        (fun r -> Float.abs (r.measured -. r.paper) <= t *. Float.abs r.paper)
        rows
  | Bracket -> List.for_all (fun r -> lo <= r.paper && r.paper <= hi) rows
  | Agree t -> hi -. lo <= t *. Float.abs lo
  | At_most -> List.for_all (fun r -> r.measured <= r.paper) rows

(* Each row of a group that breaks its rule prints its path, both
   figures and the rule, and counts as one failure. *)
let paper_failures fresh =
  let rows = paper_rows fresh in
  let groups =
    List.fold_left
      (fun gs r -> if List.mem r.group gs then gs else r.group :: gs)
      [] rows
    |> List.rev
  in
  let figure f = if Float.is_nan f then "(absent)" else Fmt.str "%.12g" f in
  List.fold_left
    (fun failures g ->
      let group = List.filter (fun r -> r.group = g) rows in
      let rule = (List.hd group).rule in
      if holds rule group then failures
      else begin
        List.iter
          (fun r ->
            Fmt.pr "FAIL: paper: %s: measured %s, paper %s (%s)@." r.row_path
              (figure r.measured) (figure r.paper) (describe rule))
          group;
        failures + List.length group
      end)
    0 groups

(* --- the job summary --- *)

(* '|' would break the markdown table cell. *)
let md_cell s = String.map (fun c -> if c = '|' then '/' else c) s
let side = function Some v -> v | None -> "(absent)"

let emit_summary ~title diffs footer =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Fmt.str "### %s\n\n" title);
  if diffs <> [] then begin
    Buffer.add_string buf "| path | baseline | fresh |\n|---|---:|---:|\n";
    List.iter
      (fun d ->
        Buffer.add_string buf
          (Fmt.str "| %s | %s | %s |\n" (md_cell d.path)
             (md_cell (side d.base_v))
             (md_cell (side d.fresh_v))))
      diffs
  end;
  Buffer.add_string buf ("\n" ^ footer ^ "\n");
  match Sys.getenv_opt "GITHUB_STEP_SUMMARY" with
  | Some path when path <> "" ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Buffer.contents buf);
      close_out oc
  | _ -> print_string (Buffer.contents buf)

(* --- the gate --- *)

(* Checks shared by both modes: a partial dump, an invariant violation,
   an SLO breach or a figure off the paper each fail the gate regardless
   of any baseline. *)
let structural_failures fresh =
  let failures = ref 0 in
  (match Json.member "_incomplete" fresh with
  | Some (Json.String name) ->
      Fmt.pr "FAIL: fresh run is incomplete (experiment %s raised)@." name;
      incr failures
  | Some _ ->
      Fmt.pr "FAIL: fresh run is incomplete@.";
      incr failures
  | None -> ());
  (match List.rev (nonempty_lists ~key:"invariant_violations" [] [] fresh) with
  | [] -> ()
  | vs ->
      List.iter
        (fun (path, entries) ->
          incr failures;
          Fmt.pr "FAIL: invariant violations at %s:@." path;
          List.iter (fun v -> Fmt.pr "  %s@." (Json.to_string v)) entries)
        vs);
  (match List.rev (nonempty_lists ~key:"breaches" [] [] fresh) with
  | [] -> ()
  | bs ->
      List.iter
        (fun (path, entries) ->
          incr failures;
          Fmt.pr "FAIL: SLO breaches at %s:@." path;
          List.iter (fun b -> Fmt.pr "  %s@." (Json.to_string b)) entries)
        bs);
  !failures + paper_failures fresh

let run_check fresh_file =
  let fresh = load fresh_file in
  let failures = structural_failures fresh in
  let footer =
    if failures = 0 then
      Fmt.str "`%s`: complete, no invariant violations, no SLO breaches."
        fresh_file
    else Fmt.str "`%s`: %d structural failure(s)." fresh_file failures
  in
  emit_summary ~title:"Soak invariant check" [] footer;
  Fmt.pr "%s: %d structural failure(s)@." fresh_file failures;
  if failures > 0 then exit 1

let run_compare baseline_file fresh_file =
  let baseline = load baseline_file and fresh = load fresh_file in
  let structural = structural_failures fresh in
  let compared, diffs = compare_trees baseline fresh in
  List.iter
    (fun d ->
      Fmt.pr "FAIL: %s: %s -> %s@." d.path (side d.base_v) (side d.fresh_v))
    diffs;
  let failures = structural + List.length diffs in
  let footer =
    Fmt.str
      "%d value(s) compared exactly against `%s`: **%d difference(s)**, %d \
       structural failure(s)."
      compared baseline_file (List.length diffs) structural
  in
  emit_summary ~title:"Bench regression gate" diffs footer;
  Fmt.pr "%d value(s) compared exactly against %s: %d difference(s), %d \
          structural failure(s)@."
    compared baseline_file (List.length diffs) structural;
  if failures > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "--check"; f ] -> run_check f
  | [ _; b; f ] -> run_compare b f
  | _ -> fail_usage ()
