(* E5 — context prefix server footprint (paper §6).

   Paper figures: 4.5 KB of 68000 code plus 2.6 KB of data, "mostly
   space reserved for its context directory". Code size has no OCaml
   analogue (documented substitution in DESIGN.md); the data-size claim
   — a per-user server whose state is a handful of bindings — is
   measured directly, including its growth with the binding count. *)

module Scenario = Vworkload.Scenario
module Prefix_server = Vnaming.Prefix_server
module Context = Vnaming.Context
module Pid = Vkernel.Pid
module Tables = Vworkload.Tables

let run () =
  Tables.print_title "E5: context prefix server memory footprint (paper §6)";
  let t = Scenario.build ~workstations:1 ~file_servers:2 () in
  let ws = Scenario.workstation t 0 in
  let prefix = ws.Scenario.ws_prefix in
  let standard = Prefix_server.data_bytes prefix in
  Fmt.pr "standard installation: %d bindings, %d bytes of live data@."
    (Prefix_server.binding_count prefix)
    standard;
  Fmt.pr "paper: 2.6 KB of data (mostly reserved directory space); code size N/A here@.@.";
  (* Growth with the binding count, from the installation's own. *)
  let target = Context.spec ~server:(Pid.make ~logical_host:1 ~local_pid:1) ~context:0 in
  let rows = ref [] in
  List.iter
    (fun n ->
      while Prefix_server.binding_count prefix < n do
        match
          Prefix_server.add_binding prefix
            (Fmt.str "extra-%d" (Prefix_server.binding_count prefix))
            (Prefix_server.Static target)
        with
        | Ok () -> ()
        | Error _ -> failwith "E5 add_binding"
      done;
      rows :=
        [
          string_of_int n;
          string_of_int (Prefix_server.data_bytes prefix);
          Fmt.str "%.1f"
            (float_of_int (Prefix_server.data_bytes prefix) /. float_of_int n);
        ]
        :: !rows)
    [ Prefix_server.binding_count prefix; 16; 32; 64; 128 ];
  Tables.print_table ~header:[ "bindings"; "data bytes"; "bytes/binding" ]
    (List.rev !rows);
  (* The paper's figure bounds the standard installation's data: its
     2.6 KB is mostly space reserved for the directory, which live
     bindings need not fill. *)
  Fmt.pr "@.";
  Tables.print_comparison
    [
      {
        Tables.label = "standard installation, live data";
        paper = Some 2600.0;
        measured = float_of_int standard;
        unit_ = "B";
      };
    ];
  Fmt.pr
    "@.even at 128 bindings the table stays a few KB: per-user prefix servers\n\
     are cheap, as the paper argues@."
