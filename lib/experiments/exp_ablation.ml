let target (b : Workloads.Suite.benchmark) =
  b.Workloads.Suite.category = Workloads.Suite.Sparse
  || b.Workloads.Suite.category = Workloads.Suite.Crypto

let elements () =
  let arch = Arch.Arm64 in
  let benches = List.filter target (Common.suite ()) in
  let rows =
    Common.rows
      (fun b ->
        ( Common.run_cached ~arch ~seed:1 Common.V_normal b,
          Common.run_cached ~arch ~seed:1 Common.V_trust_elements b ))
      benches
  in
  Support.Table.section
    "Ablation: re-checking SMI element loads vs trusting the elements kind";
  let t =
    Support.Table.create
      ~title:
        "sparse + crypto kernels, ARM64 (trust = propagate PACKED_SMI through loads)"
      ~columns:
        [ "benchmark"; "checks/100 (recheck)"; "checks/100 (trust)";
          "cycles ratio trust/recheck"; "Not-a-SMI freq delta" ]
  in
  List.iter2
    (fun (b : Workloads.Suite.benchmark) row ->
      match row with
      | Error err ->
        Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
          ~reason:(Support.Fault.class_name err)
      | Ok (r1, r2) ->
        if r1.Harness.error = None && r2.Harness.error = None then
          Support.Table.add_row t
            [ b.Workloads.Suite.id;
              Printf.sprintf "%.1f" (Harness.checks_per_100 r1);
              Printf.sprintf "%.1f" (Harness.checks_per_100 r2);
              Printf.sprintf "%.3f"
                (Harness.steady_state_cycles r2 /. Harness.steady_state_cycles r1);
              Printf.sprintf "%+.1f"
                (Harness.group_freq_per_100 r2 Insn.G_not_smi
                -. Harness.group_freq_per_100 r1 Insn.G_not_smi) ])
    benches rows;
  Support.Table.print t;
  print_endline
    "(The default re-check reproduces the paper's Fig 3/11 code shape --\n\
    \ V8 9.2 emitted Not-a-SMI checks on SMI element loads, which is what\n\
    \ jsldrsmi fuses away.  Trusting the kind removes those checks in\n\
    \ software, shrinking the extension's target, which is why the paper\n\
    \ pairs the ISA proposal with the measured engine rather than an\n\
    \ idealized one.)"
