(* Shared helpers for the benchmark harness. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module C = Vnet.Calibration

(* A bare two-or-more-host kernel rig with string messages, for the raw
   IPC experiments (E1, E2). *)
type raw = {
  eng : Vsim.Engine.t;
  net : string K.packet E.t;
  domain : string K.domain;
}

let raw_cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

let make_raw ?(config = C.ethernet_3mbit) () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config eng in
  let domain = K.create_domain ~cost:raw_cost eng net in
  { eng; net; domain }

(* Run a one-shot measurement fiber and return what it produced. *)
let measure eng body =
  let result = ref None in
  Vsim.Proc.spawn eng (fun () -> result := Some (body ()));
  Vsim.Engine.run eng;
  match !result with
  | Some v -> v
  | None -> failwith "bench: measurement fiber did not complete"

(* A server that replies to every request with the request itself: the
   far end of the raw IPC rigs (E1, E12, E14, E15). *)
let echo_server host =
  K.spawn host ~name:"echo" (fun self ->
      let rec loop () =
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender msg);
        loop ()
      in
      loop ())

(* Gigabit links (E12, E14, E15). *)
let gigabit =
  {
    C.name = "1Gb switched";
    bandwidth_bps = 1.0e9;
    header_bytes = 64;
    propagation_ms = 0.005;
  }

(* VSYSTEM_TELEMETRY=1 (the nightly lane) attaches the scale-telemetry
   stack to E12's and E14's soaks and dumps the artifact. Telemetry
   schedules nothing, so every simulated number is unchanged. *)
let telemetry_on =
  match Sys.getenv_opt "VSYSTEM_TELEMETRY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let fail_verr what e = failwith (Fmt.str "%s: %a" what Vio.Verr.pp e)

let ok what = function Ok v -> v | Error e -> fail_verr what e
