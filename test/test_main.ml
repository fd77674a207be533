let () =
  Alcotest.run "vsystem"
    (List.concat
       [
         Test_sim.suite;
         Test_net.suite;
         Test_fabric.suite;
         Test_kernel.suite;
         Test_naming.suite;
         Test_fs.suite;
         Test_vio.suite;
         Test_system.suite;
         Test_services.suite;
         Test_baseline.suite;
         Test_conformance.suite;
         Test_forest.suite;
         Test_day.suite;
         Test_edges.suite;
         Test_obs.suite;
         Test_telemetry.suite;
         Test_recorder.suite;
         Test_cache.suite;
         Test_fault.suite;
         Test_admission.suite;
         Test_replication.suite;
         Test_replica_cost.suite;
         Test_domains.suite;
       ])
