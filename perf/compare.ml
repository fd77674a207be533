(* Compare two sets of benchmark results.

     compare.exe [--bench BENCHMARK.json] A.json... -- B.json...

   Each file is a result document written by main.exe --out. For every
   workload and metric present on both sides it prints each side's
   median and quartiles (of the per-file values) and a verdict against
   the metric's bound in BENCHMARK.json:

     same        the medians differ by no more than the bound
     better      B's median beats A's by more than the bound
     worse       B's median is worse than A's by more than the bound
     unresolved  a side's own quartile spread exceeds the bound, so the
                 difference cannot be read (unless every B run beats
                 every A run, which reads as better)
     info        a per-layer metric, which has no bound

   A metric whose values are bit-identical across every file on both
   sides is marked "identical". The exit code is 1 when any verdict is
   worse. *)

module Json = Vobs.Json

let die fmt =
  Fmt.kstr
    (fun s ->
      prerr_endline ("compare: " ^ s);
      exit 2)
    fmt

let read_json file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" file e
  | exception Sys_error e -> die "%s" e

let members key j =
  match Json.member key j with Some (Json.Obj l) -> l | _ -> []

let string_of key j =
  match Json.member key j with
  | Some (Json.String s) -> s
  | _ -> die "missing %S" key

let float_of = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* Metric -> (lower is better, bound); per-layer metrics have no bound. *)
let bounds bench =
  let section key =
    match Json.member key bench with
    | Some (Json.List l) -> l
    | _ -> die "BENCHMARK.json lacks %S" key
  in
  List.map
    (fun m ->
      ( string_of "name" m,
        (string_of "better" m = "lower", float_of (Json.member "bound" m)) ))
    (section "end_to_end" @ section "per_layer")

(* Python's statistics.quantiles(data, n=4), the "exclusive" method. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      let lo = a.(j - 1) *. float_of_int (4 - delta) in
      (lo +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* (workload, metric) -> values, one per file. *)
let collect files =
  let table = Hashtbl.create 16 in
  List.iter
    (fun file ->
      List.iter
        (fun (workload, w) ->
          List.iter
            (fun (metric, m) ->
              match float_of (Json.member "value" m) with
              | Some v ->
                  let key = (workload, metric) in
                  let old = Hashtbl.find_opt table key in
                  Hashtbl.replace table key (v :: Option.value ~default:[] old)
              | None -> ())
            (members "metrics" w))
        (members "workloads" (read_json file)))
    files;
  table

(* The verdict, and by how much B is worse than A (negative: better),
   as a share of A's median. *)
let verdict ~lower ~bound a b =
  let qa1, ma, qa3 = quartiles a and qb1, mb, qb3 = quartiles b in
  let scale = Float.abs ma in
  let share x = if scale = 0.0 then 0.0 else x /. scale in
  let worse_by = share (if lower then mb -. ma else ma -. mb) in
  let spread = share (Float.max (qa3 -. qa1) (qb3 -. qb1)) in
  let beats x y = if lower then x < y else x > y in
  match bound with
  | None -> ("info", worse_by)
  | Some bound ->
      if List.for_all (fun x -> x = List.hd a) (a @ b) then ("same", worse_by)
      else if spread > bound then
        if List.for_all (fun x -> List.for_all (beats x) a) b then
          ("better", worse_by)
        else ("unresolved", worse_by)
      else if worse_by > bound then ("worse", worse_by)
      else if worse_by < -.bound then ("better", worse_by)
      else ("same", worse_by)

let () =
  let bench = ref "BENCHMARK.json" in
  let rec split side_a = function
    | "--bench" :: f :: rest ->
        bench := f;
        split side_a rest
    | "--" :: rest -> (List.rev side_a, rest)
    | f :: rest -> split (f :: side_a) rest
    | [] ->
        die "usage: compare.exe [--bench BENCHMARK.json] A.json... -- B.json..."
  in
  let side_a, side_b = split [] (List.tl (Array.to_list Sys.argv)) in
  if side_a = [] || side_b = [] then die "both sides need a result file";
  let bounds = bounds (read_json !bench) in
  let a = collect side_a and b = collect side_b in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem b k then k :: acc else acc) a []
    |> List.sort compare
  in
  let worse = ref 0 in
  Printf.printf "%-14s %-32s %-34s %-34s %9s %7s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "worse by" "bound" "verdict";
  List.iter
    (fun ((workload, metric) as key) ->
      let va = Hashtbl.find a key and vb = Hashtbl.find b key in
      let lower, bound =
        match List.assoc_opt metric bounds with
        | Some x -> x
        | None -> (true, None)
      in
      let v, worse_by = verdict ~lower ~bound va vb in
      if v = "worse" then incr worse;
      let side values =
        let q1, m, q3 = quartiles values in
        Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
      in
      let bound =
        match bound with
        | Some x -> Printf.sprintf "%.1f%%" (100.0 *. x)
        | None -> "-"
      in
      let identical = List.for_all (fun x -> x = List.hd va) (va @ vb) in
      Printf.printf "%-14s %-32s %-34s %-34s %+8.2f%% %7s  %s%s\n" workload
        metric (side va) (side vb) (100.0 *. worse_by) bound v
        (if identical then " (identical)" else ""))
    keys;
  Printf.printf "%d metric(s) compared, %d worse\n" (List.length keys) !worse;
  if !worse > 0 then exit 1
