let () =
  Alcotest.run "psm-repro"
    [ Test_bits.suite; Test_par.suite; Test_stats.suite; Test_trace.suite; Test_rtl.suite; Test_ips.suite; Test_mining.suite; Test_core.suite; Test_combine.suite; Test_hmm.suite; Test_flow.suite; Test_gates.suite; Test_hier.suite; Test_sysc.suite; Test_persist.suite; Test_edges.suite; Test_analysis.suite; Test_obs.suite; Test_stream.suite; Test_verify.suite; Test_serve.suite; Test_sim.suite; Test_golden.suite; Test_rle.suite ]
