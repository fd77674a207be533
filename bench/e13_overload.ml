(* E13 — overload: admission control and load shedding under a 10x
   bulk storm (no paper figure; ROADMAP item 5's loop-closer).

   A factor-3 replicated store serves two kinds of traffic: interactive
   naming operations (three workstation clients resolving and querying
   through their prefix servers, resilience deadline 2 s, feeding the
   windowed burn-rate SLO engine) and a bulk LoadFile storm — one-shot
   open-loop senders spawned at 250 requests/s for 15 s against an
   aggregate member capacity of ~25 loads/s (each load costs eight
   15 ms disk pages at one member), i.e. 10x offered load. Storm
   senders are impatient bulk clients: they do not run the resilience
   policy, and on an IPC timeout they blindly resend once — the
   classic retry amplification that melts an unprotected service.

   The same storm is run twice. The control run has admission control
   off: member queues grow without bound, interactive requests queue
   behind minutes of bulk work, the kernel's 60-probe transaction cap
   (30 s) turns them into timeouts, and the availability SLO burns
   through. The shed run protects the members, the replica-write
   coordinator and the routing prefix servers with the default
   admission configs: bulk traffic is shed at the members' bulk cap
   with a Busy + retry-after hint while the interactive lane keeps a
   bounded (~1 s) queue — the SLO holds with zero breaches. The shed
   run's "breaches" list is recorded verbatim so the bench-regression
   gate enforces that it stays empty; the control run's breaches are
   recorded as a count (they are the expected collapse, not a
   regression). The shed run is executed twice and must record
   identical JSON. *)

module Scenario = Vworkload.Scenario
module Tables = Vworkload.Tables
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Replica = Vservices.Replica
module Admission = Vservices.Admission
module Fs = Vservices.Fs
module Disk = Vservices.Disk
module Kernel = Vkernel.Kernel
module Prefix_server = Vnaming.Prefix_server
module Csname = Vnaming.Csname
module Vmsg = Vnaming.Vmsg
module Reply = Vnaming.Reply
module Series = Vsim.Stats.Series
module Json = Vobs.Json

let seed = 1313
let users = 3
let warm_ms = 5_000.0 (* calm phase: interactive traffic only *)
let storm_end_ms = 20_000.0 (* storm runs [warm_ms, storm_end_ms) *)
let horizon_ms = 90_000.0
let blob_blocks = 8 (* 8 x 512 B pages: 120 ms of disk arm per load *)
let blob_count = 8
let storm_rate_per_s = 250.0
let storm_hosts = [ 1; 2 ] (* storm drivers split across ws1 and ws2 *)
let members_count = 3

(* One member serves 1000 / (blob_blocks * 15 ms) loads per second. *)
let member_capacity_per_s =
  float_of_int members_count
  *. (1_000.0 /. (float_of_int blob_blocks *. Vnet.Calibration.disk_page_ms))

let offered_load_factor = storm_rate_per_s /. member_capacity_per_s

let slo_target =
  { Vobs.Slo.availability = 0.99; latency_ms = 2_500.0; latency_quantile = 0.9 }

let policy =
  {
    Vio.Resilience.max_retries = 4;
    base_backoff_ms = 20.0;
    max_backoff_ms = 200.0;
    deadline_ms = 2_000.0;
  }

type storm_counts = {
  mutable sent : int;
  mutable served : int;
  mutable shed : int; (* Busy replies: admission control said no *)
  mutable timed_out : int; (* probe budget exhausted, gave up *)
  mutable resent : int; (* blind second sends: retry amplification *)
  mutable hinted_ms : float; (* sum of retry-after hints received *)
}

let fresh_counts () =
  { sent = 0; served = 0; shed = 0; timed_out = 0; resent = 0; hinted_ms = 0.0 }

(* One bulk request, raw kernel send (no resilience policy, no SLO
   feed): a Busy reply is honoured by giving up; an IPC error triggers
   exactly one blind resend. *)
let storm_send counts self target name =
  let attempt () =
    let buffer = Bytes.create (blob_blocks * 512) in
    let req = Csname.make_req name in
    Kernel.send self ~buffer target (Vmsg.request ~name:req Vmsg.Op.load_file)
  in
  let classify = function
    | Ok (reply, _) when Vmsg.reply_code reply = Some Reply.Busy ->
        counts.shed <- counts.shed + 1;
        counts.hinted_ms <-
          (counts.hinted_ms
          +. match reply.Vmsg.retry_after with Some h -> h | None -> 0.0);
        `Done
    | Ok _ ->
        counts.served <- counts.served + 1;
        `Done
    | Error _ -> `Failed
  in
  counts.sent <- counts.sent + 1;
  match classify (attempt ()) with
  | `Done -> ()
  | `Failed -> (
      counts.resent <- counts.resent + 1;
      match classify (attempt ()) with
      | `Done -> ()
      | `Failed -> counts.timed_out <- counts.timed_out + 1)

(* Open-loop senders: a driver per storm host spawns a fresh one-shot
   process per request at a fixed interarrival, regardless of how many
   earlier requests are still blocked — offered load does not fall as
   the service degrades, which is what makes the overload a 10x one. *)
let spawn_storm t counts =
  let hosts = List.length storm_hosts in
  let interarrival = float_of_int hosts *. 1_000.0 /. storm_rate_per_s in
  List.iteri
    (fun k ws ->
      let w = Scenario.(t.workstations).(ws) in
      let router = Prefix_server.pid Scenario.(w.ws_prefix) in
      ignore
        (Kernel.spawn
           Scenario.(w.ws_host)
           ~name:(Fmt.str "storm-driver%d" ws)
           (fun _self ->
             let eng = Scenario.(t.engine) in
             Vsim.Proc.delay eng
               (warm_ms +. (float_of_int k *. interarrival /. float_of_int hosts));
             let i = ref 0 in
             while Vsim.Engine.now eng < storm_end_ms do
               let name = Fmt.str "[rstore]blob%d" (!i mod blob_count) in
               ignore
                 (Kernel.spawn
                    Scenario.(w.ws_host)
                    ~name:(Fmt.str "storm%d-%05d" ws !i)
                    (fun sender -> storm_send counts sender router name));
               incr i;
               Vsim.Proc.delay eng interarrival
             done)))
    storm_hosts

type arm_result = {
  label : string;
  admission : bool;
  operations : int;
  failed_ops : int;
  p50 : float;
  p99 : float;
  availability : float;
  breaches : Vobs.Slo.breach list;
  calm_shed_ratio : float;
  admitted : int;
  shed_total : int;
  max_member_queue : int;
  retries : int;
  windows : int;
  storm : storm_counts;
  impacts : Vobs.Attribution.impact list;
}

let run_arm ~label ~admission () =
  let t = Scenario.build ~workstations:users ~file_servers:members_count ~seed () in
  Chaos_report.arm ~slo:slo_target t;
  let domain = Scenario.(t.domain) in
  let rset = Scenario.install_replicas t ~factor:members_count in
  (* Identical blobs on every member, populated out of band; the disk
     arm is reset afterwards so setup writes cost the run nothing. *)
  List.iter
    (fun (_, fs) ->
      let disk = File_server.disk fs in
      for k = 0 to blob_count - 1 do
        match
          Fs.create_file (File_server.fs fs) ~dir:Fs.root_ino ~owner:"bench"
            (Fmt.str "blob%d" k)
        with
        | Error code -> failwith (Fmt.str "E13 setup: %a" Reply.pp code)
        | Ok ino -> (
            match
              Fs.write_file (File_server.fs fs) ~ino
                (Bytes.create (blob_blocks * Disk.page_bytes))
            with
            | Ok () -> ()
            | Error code -> failwith (Fmt.str "E13 setup: %a" Reply.pp code))
      done;
      Disk.reset_arm disk)
    (Replica.members rset);
  let protected_pids =
    Replica.member_pids rset
    @ Array.to_list
        (Array.map
           (fun ws -> Prefix_server.pid Scenario.(ws.ws_prefix))
           Scenario.(t.workstations))
  in
  if admission then begin
    (* Members and the replica-write coordinator behind ws0, plus the
       other workstations' routing prefix servers. *)
    Replica.protect rset Scenario.(t.workstations).(0).Scenario.ws_prefix;
    Admission.protect_prefix_server domain
      Scenario.(t.workstations).(1).Scenario.ws_prefix;
    Admission.protect_prefix_server domain
      Scenario.(t.workstations).(2).Scenario.ws_prefix
  end;
  let counts = fresh_counts () in
  spawn_storm t counts;
  (* Peak queue depth at the members, sampled off to the side on fs0's
     host. *)
  let max_queue = ref 0 in
  ignore
    (Kernel.spawn
       (Option.get (Kernel.host_of_addr domain (Scenario.fs_addr 0)))
       ~name:"queue-sampler"
       (fun _self ->
         let eng = Scenario.(t.engine) in
         while Vsim.Engine.now eng < horizon_ms -. 1.0 do
           List.iter
             (fun pid ->
               max_queue := max !max_queue (Admission.queue_depth domain pid))
             (Replica.member_pids rset);
           Vsim.Proc.delay eng 100.0
         done));
  let ops = ref [] in
  let latency = Series.create "e13-latency" in
  for client = 0 to (2 * users) - 1 do
    let ws = client mod users and phase = client / users in
    ignore
      (Scenario.spawn_client t ~ws
         ~name:(Fmt.str "interactive%d-%d" ws phase)
         (fun _self env ->
           Runtime.set_resilience env ~policy ~seed:(50 + client) ();
           (* No client name cache: every operation routes through the
              prefix server like a cold client, so the run measures the
              service under load, not the cache. *)
           Runtime.enable_name_cache env false;
           let eng = Runtime.engine env in
           let timed = Chaos_report.timed eng ~ops ~latency in
           if phase = 1 then Vsim.Proc.delay eng 250.0;
           let rec loop i =
             if Vsim.Engine.now eng < horizon_ms then begin
               timed (fun () ->
                   Result.map
                     (fun (_ : Vnaming.Context.spec) -> ())
                     (Runtime.resolve env "[rstore]"));
               timed (fun () ->
                   Result.map
                     (fun (_ : Vnaming.Descriptor.t) -> ())
                     (Runtime.query env
                        (Fmt.str "[rstore]blob%d" (i mod blob_count))));
               Vsim.Proc.delay eng 500.0;
               loop (i + 1)
             end
           in
           loop 0))
  done;
  (* Calm phase first: with admission on, nothing may be shed before
     the storm starts — the no-overload shed ratio gates at zero. *)
  Scenario.run ~until:warm_ms t;
  let calm_admitted, calm_shed =
    List.fold_left
      (fun (a, s) pid ->
        let a', s' = Admission.counters domain pid in
        (a + a', s + s'))
      (0, 0) protected_pids
  in
  let calm_shed_ratio =
    if calm_admitted + calm_shed = 0 then 0.0
    else float_of_int calm_shed /. float_of_int (calm_admitted + calm_shed)
  in
  Scenario.run ~until:horizon_ms t;
  let admitted, shed_total =
    List.fold_left
      (fun (a, s) pid ->
        let a', s' = Admission.counters domain pid in
        (a + a', s + s'))
      (0, 0) protected_pids
  in
  let slo =
    match Chaos_report.slo_summary t with
    | Some s -> s
    | None -> failwith "E13: no SLO engine attached"
  in
  let ops =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !ops)
  in
  let failed_ops = List.length (List.filter (fun (_, _, ok) -> not ok) ops) in
  let windows = Chaos_report.unavailability_windows ops in
  (* Attribution: the storm is the applied fault — its window joined
     against the interactive timeline the same way E9/E10 join injected
     crashes. Failures land after the window (the probe budget takes
     30 s to expire), so the lingering queue is attributed too. *)
  let fault =
    {
      Vobs.Attribution.at = warm_ms;
      until = (if admission then storm_end_ms else horizon_ms);
      kind = "slow";
      label =
        Fmt.str "bulk storm %.0f/s (%.0fx capacity)%s" storm_rate_per_s
          offered_load_factor
        (if admission then "" else ", admission off");
    }
  in
  let op_records =
    List.map
      (fun (t0, t1, ok) ->
        { Vobs.Attribution.started = t0; finished = t1; ok; retries = 0 })
      ops
  in
  let impacts =
    Vobs.Attribution.attribute ~faults:[ fault ] ~ops:op_records ~windows ()
  in
  ignore
    (Chaos_report.flight_dump t ~file:"flight-e13.json" ~violations:[]
       ~breaches:slo.Vobs.Slo.breach_list);
  let s = Series.summarize latency in
  {
    label;
    admission;
    operations = List.length ops;
    failed_ops;
    p50 = s.Series.p50;
    p99 = s.Series.p99;
    availability = slo.Vobs.Slo.availability;
    breaches = slo.Vobs.Slo.breach_list;
    calm_shed_ratio;
    admitted;
    shed_total;
    max_member_queue = !max_queue;
    retries = Chaos_report.sum_metric t "retry";
    windows = List.length windows;
    storm = counts;
    impacts;
  }

let breach_dimensions breaches =
  List.sort_uniq compare
    (List.map (fun b -> b.Vobs.Slo.dimension) breaches)

let storm_shed_ratio c =
  if c.sent = 0 then 0.0 else float_of_int c.shed /. float_of_int c.sent

let mean_hint_ms c =
  if c.shed = 0 then 0.0 else c.hinted_ms /. float_of_int c.shed

let result_json r =
  let c = r.storm in
  Json.Obj
    ([
       ("label", Json.String r.label);
       ("admission", Json.Bool r.admission);
       ("interactive_ops", Json.Int r.operations);
       ("interactive_failed", Json.Int r.failed_ops);
       ("latency_p50_ms", Json.Float r.p50);
       ("latency_p99_ms", Json.Float r.p99);
       ("availability", Json.Float r.availability);
       ("slo_breach_count", Json.Int (List.length r.breaches));
       ( "slo_breach_dimensions",
         Json.List
           (List.map (fun d -> Json.String d) (breach_dimensions r.breaches)) );
       ("storm_offered", Json.Int c.sent);
       ("storm_served", Json.Int c.served);
       ("storm_shed", Json.Int c.shed);
       ("storm_timeout", Json.Int c.timed_out);
       ("storm_resent", Json.Int c.resent);
       ( "storm_unresolved",
         Json.Int (c.sent - c.served - c.shed - c.timed_out) );
       ("shed_ratio", Json.Float (storm_shed_ratio c));
       ("mean_retry_after_hint_ms", Json.Float (mean_hint_ms c));
       ("admitted", Json.Int r.admitted);
       ("shed", Json.Int r.shed_total);
       ("max_member_queue", Json.Int r.max_member_queue);
       ("retries", Json.Int r.retries);
       ("unavailability_windows", Json.Int r.windows);
       ("attribution", Vobs.Attribution.to_json r.impacts);
     ]
    @
    if r.admission then
      (* Recorded verbatim so the bench gate enforces the shed run's
         zero-breach claim forever; the control run's breaches are the
         expected collapse and gate only as a (deterministic) count. *)
      [
        ("breaches", Json.List (List.map Vobs.Slo.breach_to_json r.breaches));
        ("calm_shed_ratio", Json.Float r.calm_shed_ratio);
      ]
    else [])

let run () =
  Tables.print_title
    "E13: overload — admission control and load shedding under a 10x bulk \
     storm";
  Tables.note_meta ~seed ~horizon_ms ();
  let shed = run_arm ~label:"shed" ~admission:true () in
  let control = run_arm ~label:"control" ~admission:false () in
  let repeat = run_arm ~label:"shed" ~admission:true () in
  let deterministic =
    Json.to_string (result_json shed) = Json.to_string (result_json repeat)
  in
  Tables.print_section
    (Fmt.str
       "Factor-%d replica set; bulk LoadFile storm %.0f/s for %.0f s vs \
        %.0f loads/s capacity (%.0fx);\n\
        %d interactive clients, resilience deadline %.0f ms, SLO %.0f%% \
        availability / p%.0f < %.0f ms"
       members_count storm_rate_per_s
       ((storm_end_ms -. warm_ms) /. 1000.0)
       member_capacity_per_s offered_load_factor (2 * users)
       policy.Vio.Resilience.deadline_ms
       (100.0 *. slo_target.Vobs.Slo.availability)
       (100.0 *. slo_target.Vobs.Slo.latency_quantile)
       slo_target.Vobs.Slo.latency_ms);
  Tables.print_table
    ~header:
      [
        "run";
        "ops";
        "failed";
        "p50 (ms)";
        "p99 (ms)";
        "avail";
        "SLO breaches";
        "storm shed";
        "storm timeout";
        "resent";
        "peak queue";
      ]
    (List.map
       (fun r ->
         [
           r.label;
           string_of_int r.operations;
           string_of_int r.failed_ops;
           Tables.ms r.p50;
           Tables.ms r.p99;
           Fmt.str "%.3f" r.availability;
           string_of_int (List.length r.breaches);
           string_of_int r.storm.shed;
           string_of_int r.storm.timed_out;
           string_of_int r.storm.resent;
           string_of_int r.max_member_queue;
         ])
       [ shed; control ]);
  List.iter
    (fun r ->
      Tables.print_section
        (Fmt.str "Attribution, %s run (overload window -> client impact)"
           r.label);
      Fmt.pr "@[%a@]@." Vobs.Attribution.pp r.impacts)
    [ shed; control ];
  Fmt.pr "@.shed repeat bit-identical: %b@." deterministic;
  Fmt.pr
    "@.with admission on, bulk is shed at the members' bulk cap (Busy +\n\
     retry-after, mean hint %.0f ms) and the interactive lane stays\n\
     bounded: %d/%d interactive ops fail, %d SLO breaches. With it off,\n\
     the same storm queues %d requests deep, interactive traffic times\n\
     out behind it and the SLO collapses: %d failures, %d breaches@."
    (mean_hint_ms shed.storm) shed.failed_ops shed.operations
    (List.length shed.breaches) control.max_member_queue control.failed_ops
    (List.length control.breaches);
  Tables.record
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("storm_rate_per_s", Json.Float storm_rate_per_s);
         ("member_capacity_per_s", Json.Float member_capacity_per_s);
         ("offered_load_factor", Json.Float offered_load_factor);
         ("shed", result_json shed);
         ("control", result_json control);
         ("deterministic_repeat", Json.Bool deterministic);
       ])
