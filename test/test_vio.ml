(* Tests for the I/O-protocol client layer: block operations and
   whole-file helpers, run against a real file server in the standard
   installation. *)

module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Vio.Verr.pp e

let run_client body =
  let t = Scenario.build ~workstations:1 ~file_servers:1 () in
  let completed = ref false in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         body self env;
         completed := true));
  Scenario.run t;
  Alcotest.(check bool) "client completed" true !completed

let test_block_roundtrip () =
  run_client (fun self env ->
      let payload = Bytes.init 1300 (fun i -> Char.chr ((i * 11) mod 256)) in
      let w = ok_exn "open w" (Runtime.open_ env ~mode:Vmsg.Write "[fs0]tmp/b.dat") in
      ok_exn "write_all" (Vio.Client.write_all self w payload);
      ok_exn "release" (Vio.Client.release self w);
      let r = ok_exn "open r" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]tmp/b.dat") in
      Alcotest.(check int) "size visible at open" 1300 (Vio.Client.size r);
      (* Block-level access. *)
      let b0 = ok_exn "read 0" (Vio.Client.read_block self r ~block:0) in
      Alcotest.(check int) "full first block" 512 (Bytes.length b0);
      let b2 = ok_exn "read 2" (Vio.Client.read_block self r ~block:2) in
      Alcotest.(check int) "short last block" (1300 - 1024) (Bytes.length b2);
      (match Vio.Client.read_block self r ~block:9 with
      | Error (Vio.Verr.Denied Reply.End_of_file) -> ()
      | _ -> Alcotest.fail "read past EOF");
      let all = ok_exn "read_all" (Vio.Client.read_all self r) in
      Alcotest.(check bool) "content equal" true (Bytes.equal payload all);
      ok_exn "release" (Vio.Client.release self r))

let test_query_instance () =
  run_client (fun self env ->
      ok_exn "write" (Runtime.write_file env "[fs0]tmp/q.dat" (Bytes.make 700 'q'));
      let r = ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]tmp/q.dat") in
      let d = ok_exn "query" (Vio.Client.query self r) in
      Alcotest.(check int) "size" 700 d.Descriptor.size;
      Alcotest.(check bool) "carries the instance id" true
        (d.Descriptor.instance = Some (Vio.Client.instance_id r));
      ok_exn "release" (Vio.Client.release self r))

let test_release_invalidates () =
  run_client (fun self env ->
      ok_exn "write" (Runtime.write_file env "[fs0]tmp/r.dat" (Bytes.of_string "x"));
      let r = ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]tmp/r.dat") in
      ok_exn "release" (Vio.Client.release self r);
      (match Vio.Client.read_block self r ~block:0 with
      | Error (Vio.Verr.Denied Reply.Invalid_instance) -> ()
      | _ -> Alcotest.fail "released instance must be invalid");
      match Vio.Client.release self r with
      | Error (Vio.Verr.Denied Reply.Invalid_instance) -> ()
      | _ -> Alcotest.fail "double release must fail")

let test_write_to_read_instance () =
  run_client (fun self env ->
      ok_exn "write" (Runtime.write_file env "[fs0]tmp/ro.dat" (Bytes.of_string "x"));
      let r = ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]tmp/ro.dat") in
      (match Vio.Client.write_block self r ~block:0 (Bytes.of_string "y") with
      | Error (Vio.Verr.Denied Reply.No_permission) -> ()
      | _ -> Alcotest.fail "read instance must refuse writes");
      ok_exn "release" (Vio.Client.release self r))

let test_append_mode () =
  run_client (fun self env ->
      (* Append writes land after the existing blocks. *)
      ok_exn "write" (Runtime.write_file env "[fs0]tmp/a.dat" (Bytes.make 512 'A'));
      let w = ok_exn "open a" (Runtime.open_ env ~mode:Vmsg.Append "[fs0]tmp/a.dat") in
      ok_exn "append" (Vio.Client.write_all self w (Bytes.make 100 'B'));
      ok_exn "release" (Vio.Client.release self w);
      let all = ok_exn "read" (Runtime.read_file env "[fs0]tmp/a.dat") in
      Alcotest.(check int) "combined size" 612 (Bytes.length all);
      Alcotest.(check char) "old data first" 'A' (Bytes.get all 0);
      Alcotest.(check char) "appended after" 'B' (Bytes.get all 512))

let test_set_size () =
  run_client (fun self env ->
      ok_exn "write" (Runtime.write_file env "[fs0]tmp/sz.dat" (Bytes.make 2000 'x'));
      let w = ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Append "[fs0]tmp/sz.dat") in
      (* Shrink to 700 bytes. *)
      ok_exn "shrink" (Vio.Client.set_size self w 700);
      ok_exn "release" (Vio.Client.release self w);
      let all = ok_exn "read" (Runtime.read_file env "[fs0]tmp/sz.dat") in
      Alcotest.(check int) "shrunk" 700 (Bytes.length all);
      Alcotest.(check char) "content kept" 'x' (Bytes.get all 699);
      (* Sparse-extend to 1500: the tail reads as zeroes. *)
      let w = ok_exn "open 2" (Runtime.open_ env ~mode:Vmsg.Append "[fs0]tmp/sz.dat") in
      ok_exn "extend" (Vio.Client.set_size self w 1500);
      ok_exn "release" (Vio.Client.release self w);
      let all = ok_exn "read 2" (Runtime.read_file env "[fs0]tmp/sz.dat") in
      Alcotest.(check int) "extended" 1500 (Bytes.length all);
      Alcotest.(check char) "sparse tail is zero" '\000' (Bytes.get all 1400);
      (* Read-mode instances may not resize. *)
      let r = ok_exn "open r" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]tmp/sz.dat") in
      (match Vio.Client.set_size self r 1 with
      | Error (Vio.Verr.Denied Reply.No_permission) -> ()
      | _ -> Alcotest.fail "read instance must not resize");
      ok_exn "release" (Vio.Client.release self r))

let suite =
  [
    ( "vio.client",
      [
        Alcotest.test_case "block roundtrip" `Quick test_block_roundtrip;
        Alcotest.test_case "query instance" `Quick test_query_instance;
        Alcotest.test_case "release invalidates" `Quick test_release_invalidates;
        Alcotest.test_case "read-only instance" `Quick test_write_to_read_instance;
        Alcotest.test_case "append mode" `Quick test_append_mode;
        Alcotest.test_case "set size" `Quick test_set_size;
      ] );
  ]
