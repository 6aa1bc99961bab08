let tiers () =
  let arch = Arch.Arm64 in
  let iters = max 40 (Common.iterations () / 4) in
  let suite = Common.suite () in
  let rows =
    Common.rows
      (fun b ->
        let run variant =
          Common.run_cached ~iterations:iters ~arch ~seed:1 variant b
        in
        ( run Common.V_interp_only, run Common.V_baseline,
          run Common.V_turboprop, run Common.V_normal ))
      suite
  in
  Support.Table.section
    "Tier ablation: interpreter / baseline (SparkPlug) / TurboProp / TurboFan";
  let t =
    Support.Table.create
      ~title:
        "steady-state cycles per iteration, normalized to the optimizer (lower = faster)"
      ~columns:
        [ "benchmark"; "interp"; "baseline"; "turboprop"; "turbofan";
          "tp checks/100"; "tf checks/100" ]
  in
  List.iter2
    (fun (b : Workloads.Suite.benchmark) row ->
      match row with
      | Error err ->
        Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
          ~reason:(Support.Fault.class_name err)
      | Ok (interp, baseline, turboprop, turbofan) ->
      let s r = Harness.steady_state_cycles r in
      let base = s turbofan in
      if base > 0.0 then
        Support.Table.add_row t
          [ b.Workloads.Suite.id;
            Printf.sprintf "%.2fx" (s interp /. base);
            Printf.sprintf "%.2fx" (s baseline /. base);
            Printf.sprintf "%.2fx" (s turboprop /. base);
            "1.00x";
            Printf.sprintf "%.1f" (Harness.checks_per_100 turboprop);
            Printf.sprintf "%.1f" (Harness.checks_per_100 turbofan) ])
    suite rows;
  Support.Table.print t;
  print_endline
    "(TurboProp skips the check-elimination/hoisting passes: same\n\
    \ speculation, more checks -- the paper's mid-tier description.)"
