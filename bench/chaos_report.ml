(* Shared chaos-observability reporting for E9, E10 and E13: arm the
   flight recorder (and optionally the SLO engine) on a scenario before
   it runs, record each client operation's timeline entry and latency,
   sum counters and find unavailability windows in its results, and
   join the injector's applied-fault windows against the operation
   timeline into the attribution table E9 and E10 print and record.

   Everything here is bookkeeping over data the run already produced —
   arming the recorder or attaching the SLO engine never changes a
   simulated timing, so the fault timelines and metrics stay
   byte-identical with the observability on or off. *)

module Scenario = Vworkload.Scenario
module Injector = Vfault.Injector
module Json = Vobs.Json

(* Turn the flight recorder on (and attach an SLO engine when a target
   is given). Call from the scenario's configure hook, before the
   simulation runs, so the recorder sees every event. *)
let arm ?slo t =
  let obs = Scenario.(t.obs) in
  Vobs.Eventlog.set_enabled (Vobs.Hub.events obs) true;
  match slo with
  | None -> ()
  | Some target ->
      Vobs.Hub.set_slo obs (Some (Vobs.Slo.create ~target ()))

(* Run one client operation [f], adding (start, end, ok) to the
   timeline [ops] and its latency to [latency]: what E10 and E13 record
   of every operation. *)
let timed eng ~ops ~latency f =
  let t0 = Vsim.Engine.now eng in
  let ok = Result.is_ok (f ()) in
  let t1 = Vsim.Engine.now eng in
  ops := (t0, t1, ok) :: !ops;
  Vsim.Stats.Series.add latency (t1 -. t0)

(* Sum one counter over every host (each workstation's runtime exports
   under its own host key). *)
let sum_metric t op =
  let metrics = Vobs.Hub.metrics Scenario.(t.obs) in
  List.fold_left
    (fun acc ((k : Vobs.Metrics.key), v) ->
      if k.Vobs.Metrics.op = op then acc + v else acc)
    0
    (Vobs.Metrics.counters metrics)

(* Maximal runs of consecutive failed operations in the timeline:
   (first failure's start, last failure's end). *)
let unavailability_windows ops =
  let rec go acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some w -> w :: acc)
    | (t0, t1, ok) :: rest ->
        if ok then
          match cur with
          | None -> go acc None rest
          | Some w -> go (w :: acc) None rest
        else
          match cur with
          | None -> go acc (Some (t0, t1)) rest
          | Some (s, _) -> go acc (Some (s, t1)) rest
  in
  go [] None ops

let prefixed ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

(* Client retry events the recorder captured inside [lo, hi]: the
   "retries" column of the attribution table. The per-op retry count is
   not observable from the outside (the policy hides it behind one
   result), but the recorder sees every attempt. *)
let retries_within events ~lo ~hi =
  List.length
    (List.filter
       (fun (e : Vobs.Eventlog.event) ->
         e.Vobs.Eventlog.cat = Vobs.Eventlog.Client
         && e.Vobs.Eventlog.at >= lo
         && e.Vobs.Eventlog.at <= hi
         && prefixed ~prefix:"retry" e.Vobs.Eventlog.label)
       events)

(* The attribution pass: applied faults (with their recovery times)
   joined against the op timeline and the unavailability windows, retry
   counts filled in from the flight recorder. Deterministic: pure
   function of the run's recorded data. *)
let attribution t inj ~horizon_ms ~ops ~windows =
  let faults = Injector.attribution_faults inj ~horizon_ms in
  let op_records =
    List.map
      (fun (t0, t1, ok) ->
        { Vobs.Attribution.started = t0; finished = t1; ok; retries = 0 })
      ops
  in
  let impacts =
    Vobs.Attribution.attribute ~faults ~ops:op_records ~windows ()
  in
  let events = Vobs.Eventlog.events (Vobs.Hub.events Scenario.(t.obs)) in
  List.map
    (fun (imp : Vobs.Attribution.impact) ->
      {
        imp with
        Vobs.Attribution.retries =
          retries_within events ~lo:imp.Vobs.Attribution.fault.Vobs.Attribution.at
            ~hi:imp.Vobs.Attribution.fault.Vobs.Attribution.until;
      })
    impacts

let slo_summary t =
  Option.map Vobs.Slo.summary (Vobs.Hub.slo Scenario.(t.obs))

(* Dump the flight recorder to [file] when the run ended badly —
   invariant violations or SLO breaches — so CI can attach the evidence
   to the failure. Returns the reason written, if any. *)
let flight_dump ?(breaches = []) t ~file ~violations =
  let reason =
    match (violations, breaches) with
    | [], [] -> None
    | _ :: _, _ -> Some "invariant-violation"
    | [], _ :: _ -> Some "slo-breach"
  in
  match reason with
  | None -> None
  | Some reason ->
      let json = Vobs.Export.flight_to_json ~reason Scenario.(t.obs) in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Json.to_string json);
          output_char oc '\n');
      Fmt.pr "@.flight recorder dumped to %s (%s)@." file reason;
      Some reason
