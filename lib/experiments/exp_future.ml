let target (b : Workloads.Suite.benchmark) =
  b.Workloads.Suite.category = Workloads.Suite.Objects
  || b.Workloads.Suite.category = Workloads.Suite.Sparse

let futurework () =
  let iters = max 40 (Common.iterations () / 4) in
  let benches = List.filter target (Common.suite ()) in
  let rows =
    Common.rows
      (fun b ->
        let run variant =
          Common.run_cached ~cpu:Cpu.o3_kpg ~iterations:iters ~arch:Arch.Arm64
            ~seed:1 variant b
        in
        (run Common.V_smi_ext, run Common.V_fuse_maps))
      benches
  in
  Support.Table.section
    "Future work (paper Section VII): fused map checks (jschkmap) on top of jsldrsmi";
  let t =
    Support.Table.create
      ~title:"object-heavy benchmarks, extended ISA, O3-KPG"
      ~columns:
        [ "benchmark"; "cycles (smi ext)"; "cycles (+map fuse)"; "speedup";
          "instr delta" ]
  in
  List.iter2
    (fun (b : Workloads.Suite.benchmark) row ->
      match row with
      | Error err ->
        Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
          ~reason:(Support.Fault.class_name err)
      | Ok (base, fused) ->
        if base.Harness.error = None && fused.Harness.error = None
           && base.Harness.checksum = fused.Harness.checksum
        then begin
          let s1 = Harness.steady_state_cycles base in
          let s2 = Harness.steady_state_cycles fused in
          let i1 = base.Harness.counters.Perf.instructions in
          let i2 = fused.Harness.counters.Perf.instructions in
          Support.Table.add_row t
            [ b.Workloads.Suite.id;
              Printf.sprintf "%.0f" s1;
              Printf.sprintf "%.0f" s2;
              Support.Table.fmt_speedup (s1 /. s2);
              Printf.sprintf "%+.1f%%"
                (100.0 *. (float_of_int i2 /. float_of_int i1 -. 1.0)) ]
        end)
    benches rows;
  Support.Table.print t;
  print_endline
    "(This prototype goes beyond the paper's evaluated proposal; it\n\
    \ implements the generalization the conclusion sketches.  The\n\
    \ correctness of the fused check's bailout is covered by the test\n\
    \ suite.)"
