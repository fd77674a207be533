(* Micro-benchmarks (real execution time, via Bechamel): the hot paths
   of the naming machinery — component parsing, prefix lookup, one
   mapping step, name-cache lookups, a keyed metric, descriptor
   marshalling — plus the simulator's event queue. These measure the
   OCaml implementation itself, not the simulated 68000 costs. *)

open Bechamel
open Toolkit
open Vnaming

let deep_name = String.concat "/" (List.init 12 (fun i -> Fmt.str "component%d" i))

let test_components =
  Test.make ~name:"csname.components (12 parts)"
    (Staged.stage (fun () -> Csname.components deep_name))

let test_parse_prefix =
  let req = Csname.make_req "[homedir]papers/naming.mss" in
  Test.make ~name:"csname.parse_prefix"
    (Staged.stage (fun () -> Csname.parse_prefix req))

let walk_lookup ctx component =
  match (ctx, component) with
  | 0, "a" -> Csnh.Descend 1
  | 1, "b" -> Csnh.Descend 2
  | _ -> Csnh.Stop

let test_walk =
  let req = Csname.make_req ~context:0 "a/b/file.txt" in
  Test.make ~name:"csnh.walk (3 components)"
    (Staged.stage (fun () ->
         Csnh.walk ~valid_context:(fun _ -> true) ~lookup:walk_lookup req))

(* A client cache holding a prefix binding and one directory binding
   under it: the deep hit finds the directory below a file name, the
   miss probes every cut of a name under another prefix. *)
let cache =
  let c = Name_cache.create () in
  let spec =
    Context.spec
      ~server:(Vkernel.Pid.make ~logical_host:1 ~local_pid:1)
      ~context:7
  in
  ignore (Name_cache.learn c "[fs0]" spec);
  ignore (Name_cache.learn c "[fs0]usr/src/lib" spec);
  c

let test_cache_hit =
  Test.make ~name:"name_cache.find (deep hit)"
    (Staged.stage (fun () ->
         Name_cache.find cache "[fs0]usr/src/lib/naming.ml"))

let test_cache_miss =
  Test.make ~name:"name_cache.find (miss)"
    (Staged.stage (fun () ->
         Name_cache.find cache "[fs1]usr/src/lib/naming/csnh.ml"))

let test_metrics_incr =
  let m = Vobs.Metrics.create () in
  Test.make ~name:"metrics.incr (existing key)"
    (Staged.stage (fun () ->
         Vobs.Metrics.incr m ~host:"ws0" ~server:"ws0-prefix-server"
           ~op:"lookup"))

let descriptor =
  Descriptor.make ~obj_type:Descriptor.File ~size:8192 ~owner:"mann"
    ~created:12.5 ~modified:99.25
    ~attrs:[ ("device", "xy0") ]
    "naming.mss"

let test_marshal =
  Test.make ~name:"descriptor.to_bytes"
    (Staged.stage (fun () -> Descriptor.to_bytes descriptor))

let marshalled = Descriptor.to_bytes descriptor

let test_unmarshal =
  Test.make ~name:"descriptor.of_bytes"
    (Staged.stage (fun () -> Descriptor.of_bytes marshalled 0))

let test_heap =
  Test.make ~name:"event heap push+pop (64)"
    (Staged.stage (fun () ->
         let h = Vsim.Heap.create ~compare:Int.compare in
         for i = 0 to 63 do
           Vsim.Heap.push h ((i * 37) mod 64)
         done;
         while not (Vsim.Heap.is_empty h) do
           ignore (Vsim.Heap.pop h)
         done))

let test_pid =
  Test.make ~name:"pid encode+decode"
    (Staged.stage (fun () ->
         let pid = Vkernel.Pid.make ~logical_host:291 ~local_pid:1044 in
         Vkernel.Pid.local_pid (Vkernel.Pid.of_int (Vkernel.Pid.to_int pid))))

let tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [
      test_components; test_parse_prefix; test_walk; test_cache_hit;
      test_cache_miss; test_metrics_incr; test_marshal; test_unmarshal;
      test_heap; test_pid;
    ]

let run () =
  Vworkload.Tables.print_title "Micro-benchmarks (real OCaml execution time)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Fmt.str "%.1f" x
            | _ -> "?"
          in
          rows := [ name; ns ] :: !rows)
        per_test)
    results;
  Vworkload.Tables.print_table ~header:[ "operation"; "ns/run" ]
    (List.sort compare !rows)
