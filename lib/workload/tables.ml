(* Plain-text table rendering for the benchmark harness.

   Every table printed is also recorded as JSON, grouped under the most
   recent title, so the harness can dump a machine-readable summary of
   a run (bench --json FILE) with no per-experiment code. *)

module Json = Vobs.Json

let json_store : (string * Json.t list ref) list ref = ref []
let current_title = ref "(untitled)"

let record json =
  let entries =
    match List.assoc_opt !current_title !json_store with
    | Some entries -> entries
    | None ->
        let entries = ref [] in
        json_store := !json_store @ [ (!current_title, entries) ];
        entries
  in
  entries := !entries @ [ json ]

(* Run metadata, prepended to the dump as "_meta" so a baseline is
   self-describing: which tool and version wrote it, which experiments
   ran, and each one's seed and sim horizon. The harness opens an entry
   per experiment (begin_experiment); the experiment fills in what it
   knows (note_meta) — an experiment that runs to quiescence has no
   horizon, one that never draws randomness reports its scenario
   seed. Host-measured values (note_host) go into the entry's "host"
   object, the one part of a dump two runs of the same seed may
   disagree on; bench/compare.ml gates everything else exactly. *)
let tool = "vsystem-bench"
let tool_version = "0.5"

type meta_cell = {
  mutable m_seed : int option;
  mutable m_horizon : float option;
  mutable m_events : int option;
  mutable m_host : (string * Json.t) list;
  mutable m_host_paced : bool;
}

let run_meta : (string * meta_cell) list ref = ref []
let current_meta : meta_cell option ref = ref None

let begin_experiment name =
  let cell =
    {
      m_seed = None;
      m_horizon = None;
      m_events = None;
      m_host = [];
      m_host_paced = false;
    }
  in
  run_meta := !run_meta @ [ (name, cell) ];
  current_meta := Some cell

let note_host key value =
  match !current_meta with
  | None -> ()
  | Some cell -> cell.m_host <- cell.m_host @ [ (key, value) ]

let host_paced () =
  match !current_meta with
  | None -> ()
  | Some cell -> cell.m_host_paced <- true

let note_meta ?seed ?horizon_ms ?events_executed () =
  match !current_meta with
  | None -> ()
  | Some cell -> (
      (match seed with Some v -> cell.m_seed <- Some v | None -> ());
      (match horizon_ms with Some v -> cell.m_horizon <- Some v | None -> ());
      match events_executed with
      | Some v when cell.m_host_paced ->
          note_host "events_executed" (Json.Int v)
      | Some v -> cell.m_events <- Some v
      | None -> ())

let meta_json () =
  let experiments =
    List.map
      (fun (name, cell) ->
        ( name,
          Json.Obj
            [
              ( "seed",
                match cell.m_seed with Some v -> Json.Int v | None -> Json.Null
              );
              ( "horizon_ms",
                match cell.m_horizon with
                | Some v -> Json.Float v
                | None -> Json.Null );
              ( "events_executed",
                match cell.m_events with
                | Some v -> Json.Int v
                | None -> Json.Null );
              ("host", Json.Obj cell.m_host);
            ] ))
      !run_meta
  in
  Json.Obj
    [
      ("tool", Json.String tool);
      ("version", Json.String tool_version);
      ("experiments", Json.Obj experiments);
    ]

let results_json () =
  let fields =
    List.map (fun (title, entries) -> (title, Json.List !entries)) !json_store
  in
  (* Callers that never opened an experiment (unit tests exercising the
     tables directly) keep the bare document shape. *)
  match !run_meta with
  | [] -> Json.Obj fields
  | _ -> Json.Obj (("_meta", meta_json ()) :: fields)

let print_title title =
  current_title := title;
  let bar = String.make (String.length title) '=' in
  Fmt.pr "@.%s@.%s@." title bar

let print_section title =
  let bar = String.make (String.length title) '-' in
  Fmt.pr "@.%s@.%s@." title bar

(* Render rows with left-aligned first column and right-aligned rest. *)
let print_table_text ~header rows =
  let all = header :: rows in
  let columns = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init columns width in
  let render_row row =
    row
    |> List.mapi (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Fmt.str "%-*s" w cell else Fmt.str "%*s" w cell)
    |> String.concat "  "
  in
  Fmt.pr "%s@." (render_row header);
  Fmt.pr "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Fmt.pr "%s@." (render_row row)) rows

let print_table ?(host = []) ~header rows =
  print_table_text ~header rows;
  List.iter
    (fun row ->
      let host_cells, cells =
        List.map2 (fun k v -> (k, Json.String v)) header row
        |> List.partition (fun (k, _) -> List.mem k host)
      in
      if host_cells <> [] then note_host (List.hd row) (Json.Obj host_cells);
      record (Json.Obj cells))
    rows

type comparison = {
  label : string;
  paper : float option;  (** the figure the paper reports, if any *)
  measured : float;
  unit_ : string;
}

(* Paper-vs-measured with the relative deviation, the core output format
   of EXPERIMENTS.md. *)
let print_comparison rows =
  List.iter
    (fun { label; paper; measured; unit_ } ->
      record
        (Json.Obj
           [
             ("label", Json.String label);
             ( "paper",
               match paper with Some p -> Json.Float p | None -> Json.Null );
             ("measured", Json.Float measured);
             ("unit", Json.String unit_);
           ]))
    rows;
  let render { label; paper; measured; unit_ } =
    match paper with
    | Some p ->
        [
          label;
          Fmt.str "%.2f %s" p unit_;
          Fmt.str "%.2f %s" measured unit_;
          Fmt.str "%+.1f%%" ((measured -. p) /. p *. 100.0);
        ]
    | None -> [ label; "-"; Fmt.str "%.2f %s" measured unit_; "-" ]
  in
  print_table_text ~header:[ "quantity"; "paper"; "measured"; "deviation" ]
    (List.map render rows)

let ms v = Fmt.str "%.2f ms" v
let count v = string_of_int v
