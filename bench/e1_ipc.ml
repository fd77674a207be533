(* E1 — kernel IPC message transactions (paper §3.1).

   Paper figures: 0.77 ms local Send-Receive-Reply (SOSP'83 companion
   measurement) and 2.56 ms remote with 32-byte messages on 3 Mbit
   Ethernet. The 10 Mbit rows are the model's predictions: CPU-bound,
   so only modestly faster. *)

module K = Vkernel.Kernel
module C = Vnet.Calibration
module Tables = Vworkload.Tables

let srr_ms ~config ~remote ~payload =
  let rig = Rig.make_raw ~config () in
  let h1 = K.boot_host rig.domain ~name:"client-host" 1 in
  let h2 = if remote then K.boot_host rig.domain ~name:"server-host" 2 else h1 in
  let server = Rig.echo_server h2 in
  Rig.measure rig.eng (fun () ->
      (* One warm-up, then the measured transaction. *)
      let result = ref nan in
      let done_ = Vsim.Proc.Ivar.create () in
      ignore
        (K.spawn h1 ~name:"client" (fun self ->
             (match K.send self server payload with Ok _ | Error _ -> ());
             let t0 = Vsim.Engine.now rig.eng in
             (match K.send self server payload with
             | Ok _ -> ()
             | Error e -> failwith (Fmt.str "E1 send: %a" K.pp_error e));
             result := Vsim.Engine.now rig.eng -. t0;
             Vsim.Proc.Ivar.fill done_ (Ok ())));
      Vsim.Proc.Ivar.read done_;
      !result)

let run () =
  Tables.print_title "E1: Send-Receive-Reply message transaction (paper §3.1)";
  Tables.note_meta ~seed:42 ();
  Tables.print_comparison
    [
      {
        Tables.label = "local SRR, 32B msg";
        paper = Some 0.77;
        measured = srr_ms ~config:C.ethernet_3mbit ~remote:false ~payload:"";
        unit_ = "ms";
      };
      {
        label = "remote SRR, 32B msg, 3 Mbit";
        paper = Some 2.56;
        measured = srr_ms ~config:C.ethernet_3mbit ~remote:true ~payload:"";
        unit_ = "ms";
      };
      {
        label = "remote SRR, 32B msg, 10 Mbit";
        paper = None;
        measured = srr_ms ~config:C.ethernet_10mbit ~remote:true ~payload:"";
        unit_ = "ms";
      };
      {
        label = "remote SRR, +512B segment, 3 Mbit";
        paper = None;
        measured =
          srr_ms ~config:C.ethernet_3mbit ~remote:true
            ~payload:(String.make 512 'x');
        unit_ = "ms";
      };
    ]
