(* Workload generation: file populations and name/operation streams for
   the comparison experiments. *)

module Fs = Vservices.Fs
module File_server = Vservices.File_server

let word prng =
  let len = 3 + Vsim.Prng.int prng 8 in
  String.init len (fun _ -> Char.chr (Char.code 'a' + Vsim.Prng.int prng 26))

(* Populate a file server with a directory tree; returns the absolute
   paths of all created files. Runs at setup time (write-behind). *)
let populate prng fs_server ~directories ~files_per_directory =
  let fs = File_server.fs fs_server in
  let dirs = ref [ (Fs.root_ino, "") ] in
  for _ = 1 to directories do
    let parent_ino, parent_path = Vsim.Prng.pick prng !dirs in
    let name = word prng in
    match Fs.mkdir fs ~dir:parent_ino ~owner:"workload" name with
    | Ok ino -> dirs := (ino, parent_path ^ "/" ^ name) :: !dirs
    | Error _ -> () (* duplicate name: skip *)
  done;
  let paths = ref [] in
  List.iter
    (fun (dir_ino, dir_path) ->
      for _ = 1 to files_per_directory do
        let name = word prng ^ ".dat" in
        match Fs.create_file fs ~dir:dir_ino ~owner:"workload" name with
        | Ok ino ->
            let content =
              Bytes.of_string (Fmt.str "contents of %s/%s" dir_path name)
            in
            (match Fs.write_file fs ~ino content with Ok () | Error _ -> ());
            paths := (dir_path ^ "/" ^ name) :: !paths
        | Error _ -> ()
      done)
    !dirs;
  List.rev !paths

(* Strip the leading slash: protocol names are interpreted relative to
   the starting context (the root context here). *)
let relative path =
  if String.length path > 0 && path.[0] = '/' then
    String.sub path 1 (String.length path - 1)
  else path

(* An operation mix for the comparison workload. *)
type op = Open_read of string | Query of string | Delete of string

(* Zipf name popularity: rank i (0-based) drawn with probability
   proportional to (i+1)^-s. The cumulative distribution is
   precomputed once; each sample is then one PRNG float draw and a
   binary search — the same single-draw budget as a uniform pick. *)
let zipf_cumulative ?(s = 1.0) n =
  if n < 1 then invalid_arg "Generator.zipf_cumulative: n < 1";
  let w = Array.init n (fun i -> Float.pow (float_of_int (i + 1)) (-.s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. x;
      cum.(i) <- !acc /. total)
    w;
  (* Close the distribution exactly, against rounding. *)
  cum.(n - 1) <- 1.0;
  cum

let zipf_pick prng cum =
  let u = Vsim.Prng.float prng in
  (* The smallest rank whose cumulative weight exceeds the draw. *)
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* --- cohort clients --- *)

(* A cohort stands in for [size] statistically identical open-loop
   clients, each submitting operations as a Poisson process with mean
   inter-arrival [mean_gap_ms]. The superposition of [size] independent
   Poisson streams at rate 1/gap is one Poisson stream at rate
   size/gap, so one cohort process driven by one PRNG stream produces
   an arrival sequence distributionally identical to [size] separate
   client processes — without [size] fibers, queues, or PRNG states.
   This is what lets a soak simulate a million clients with thousands
   of processes (e12). *)
type cohort = {
  c_prng : Vsim.Prng.t;
  c_size : int;
  c_mean_gap_ms : float;
}

let cohort ~size ~mean_gap_ms prng =
  if size < 1 then invalid_arg "Generator.cohort: size < 1";
  if mean_gap_ms <= 0.0 then invalid_arg "Generator.cohort: mean_gap_ms <= 0";
  { c_prng = prng; c_size = size; c_mean_gap_ms = mean_gap_ms }

let cohort_size c = c.c_size

(* Next inter-arrival gap of the aggregated stream: exponential with
   the per-client mean divided by the cohort size. *)
let cohort_next_gap c =
  Vsim.Prng.exponential c.c_prng
    ~mean:(c.c_mean_gap_ms /. float_of_int c.c_size)

(* [locality] is the probability an operation targets the small hot set
   (the first [hot_set] paths) instead of drawing uniformly. [zipf], when
   positive, is the exponent of a Zipf popularity distribution over the
   paths (rank = position in [paths]) replacing the uniform draw. At the
   defaults (0.0) no extra PRNG draw is made and the uniform path is
   taken, so streams generated before either knob existed are reproduced
   bit-for-bit. *)
let operation_stream ?(locality = 0.0) ?(hot_set = 8) ?(zipf = 0.0) prng paths
    ~n ~delete_fraction =
  let paths = Array.of_list paths in
  if Array.length paths = 0 then []
  else
    let hot = min hot_set (Array.length paths) in
    let zipf_cum =
      if zipf > 0.0 then Some (zipf_cumulative ~s:zipf (Array.length paths))
      else None
    in
    List.init n (fun _ ->
        let path =
          if locality > 0.0 && hot > 0 && Vsim.Prng.float prng < locality then
            paths.(Vsim.Prng.int prng hot)
          else
            match zipf_cum with
            | Some cum -> paths.(zipf_pick prng cum)
            | None -> paths.(Vsim.Prng.int prng (Array.length paths))
        in
        let roll = Vsim.Prng.float prng in
        if roll < delete_fraction then Delete path
        else if roll < 0.5 then Query path
        else Open_read path)
