(* Time-series ring buffers: the time dimension the snapshot-oriented
   registry lacks.

   Each named series holds a fixed-size array of (bucket start time,
   value) points in simulated time. Memory is bounded twice over: the
   per-series point budget is fixed at creation, and the number of
   series is capped ([max_series], refusals counted in
   [series_dropped]) so a runaway caller cannot grow the store.

   Within one time bucket, samples coalesce — a counter keeps the
   latest (cumulative) reading, a gauge keeps the peak. When a series
   fills its point budget it downsamples in place: adjacent point
   pairs merge (counter: the later cumulative value; gauge: the max),
   halving the point count and doubling that series' bucket width. A
   week-long soak therefore always fits, trading resolution for span —
   recent history is fine-grained, a longer run is progressively
   coarser, and nothing is ever reallocated.

   Sampling takes the caller's [~now]; nothing here reads or advances
   the simulation clock, keeping the telemetry-on/off determinism
   guarantee. *)

type kind = Counter | Gauge

let kind_to_string = function Counter -> "counter" | Gauge -> "gauge"

type series = {
  kind : kind;
  mutable bucket_ms : float;
  times : float array;  (* bucket start times; valid prefix [0, len) *)
  values : float array;
  mutable len : int;
}

type t = {
  capacity : int;  (* points per series *)
  base_bucket_ms : float;
  max_series : int;
  series : (string, series) Hashtbl.t;
  mutable series_dropped : int;
}

let create ?(capacity = 256) ?(bucket_ms = 1000.0) ?(max_series = 512) () =
  if capacity < 4 then invalid_arg "Timeseries.create: capacity must be >= 4";
  if bucket_ms <= 0.0 then
    invalid_arg "Timeseries.create: bucket_ms must be positive";
  if max_series < 1 then
    invalid_arg "Timeseries.create: max_series must be >= 1";
  {
    capacity;
    base_bucket_ms = bucket_ms;
    max_series;
    series = Hashtbl.create 64;
    series_dropped = 0;
  }

(* Halve the series in place: pair (2i, 2i+1) becomes point i. The
   surviving time is the pair's first bucket start; the value follows
   the kind's coalescing rule. An odd trailing point survives as is. *)
let compact s =
  let pairs = s.len / 2 in
  for i = 0 to pairs - 1 do
    s.times.(i) <- s.times.(2 * i);
    s.values.(i) <-
      (match s.kind with
      | Counter -> s.values.((2 * i) + 1)
      | Gauge -> Float.max s.values.(2 * i) s.values.((2 * i) + 1))
  done;
  if s.len land 1 = 1 then begin
    s.times.(pairs) <- s.times.(s.len - 1);
    s.values.(pairs) <- s.values.(s.len - 1)
  end;
  s.len <- (s.len / 2) + (s.len land 1);
  s.bucket_ms <- s.bucket_ms *. 2.0

let sample t name kind ~now v =
  match Hashtbl.find_opt t.series name with
  | None ->
      if Hashtbl.length t.series >= t.max_series then
        t.series_dropped <- t.series_dropped + 1
      else begin
        let s =
          {
            kind;
            bucket_ms = t.base_bucket_ms;
            times = Array.make t.capacity 0.0;
            values = Array.make t.capacity 0.0;
            len = 1;
          }
        in
        s.times.(0) <- Float.of_int (int_of_float (now /. s.bucket_ms)) *. s.bucket_ms;
        s.values.(0) <- v;
        Hashtbl.replace t.series name s
      end
  | Some s ->
      let bucket = Float.of_int (int_of_float (now /. s.bucket_ms)) *. s.bucket_ms in
      if s.len > 0 && s.times.(s.len - 1) >= bucket then begin
        (* Same bucket (or late sample): coalesce into the last point. *)
        let last = s.len - 1 in
        s.values.(last) <-
          (match s.kind with
          | Counter -> v
          | Gauge -> Float.max s.values.(last) v)
      end
      else begin
        if s.len >= t.capacity then compact s;
        (* Re-derive the bucket: compaction may have widened it. *)
        let bucket =
          Float.of_int (int_of_float (now /. s.bucket_ms)) *. s.bucket_ms
        in
        if s.len > 0 && s.times.(s.len - 1) >= bucket then
          let last = s.len - 1 in
          s.values.(last) <-
            (match s.kind with
            | Counter -> v
            | Gauge -> Float.max s.values.(last) v)
        else begin
          s.times.(s.len) <- bucket;
          s.values.(s.len) <- v;
          s.len <- s.len + 1
        end
      end

let points t name =
  match Hashtbl.find_opt t.series name with
  | None -> []
  | Some s -> List.init s.len (fun i -> (s.times.(i), s.values.(i)))

let bucket_ms t name =
  Option.map (fun s -> s.bucket_ms) (Hashtbl.find_opt t.series name)

let names t =
  Hashtbl.fold (fun name s acc -> (name, s.kind) :: acc) t.series []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let series_count t = Hashtbl.length t.series
let series_dropped t = t.series_dropped

(* Eight-level block sparkline over the last [spark_width] points,
   scaled to the window's own min..max (a flat series renders as a low
   bar). *)
let spark_width = 24

let spark_chars = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                    "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let sparkline t name =
  match Hashtbl.find_opt t.series name with
  | None -> ""
  | Some s when s.len = 0 -> ""
  | Some s ->
      let start = Int.max 0 (s.len - spark_width) in
      let window = Array.sub s.values start (s.len - start) in
      let lo = Array.fold_left Float.min window.(0) window in
      let hi = Array.fold_left Float.max window.(0) window in
      let scale v =
        if hi <= lo then 0
        else
          Int.min 7 (int_of_float ((v -. lo) /. (hi -. lo) *. 8.0))
      in
      Array.to_list window
      |> List.map (fun v -> spark_chars.(scale v))
      |> String.concat ""

let to_json t =
  let series_rows =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.series []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, s) ->
           Json.Obj
             [
               ("name", Json.String name);
               ("kind", Json.String (kind_to_string s.kind));
               ("bucket_ms", Json.Float s.bucket_ms);
               ( "points",
                 Json.List
                   (List.init s.len (fun i ->
                        Json.List
                          [ Json.Float s.times.(i); Json.Float s.values.(i) ]))
               );
             ])
  in
  Json.Obj
    [
      ("series_count", Json.Int (series_count t));
      ("series_dropped", Json.Int t.series_dropped);
      ("series", Json.List series_rows);
    ]

let pp ppf t =
  List.iter
    (fun (name, kind) ->
      Fmt.pf ppf "%s (%s): %s@." name (kind_to_string kind)
        (sparkline t name))
    (names t)
