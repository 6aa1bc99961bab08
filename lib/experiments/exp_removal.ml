type speedups = {
  s_bench : Workloads.Suite.benchmark;
  s_removal : float array;
  s_sampling : float;
  s_leftover : bool;
  s_sig : Support.Stats.significance;
}

let archs = [ Arch.X64; Arch.Arm64 ]

let speedups_for ~arch (b : Workloads.Suite.benchmark) =
  let removable, fired = Common.removable_groups ~arch b in
  let reps = Common.repetitions () in
  let with_checks = Array.make reps 0.0 in
  let without = Array.make reps 0.0 in
  let overheads = Array.make reps 0.0 in
  for rep = 0 to reps - 1 do
    let seed = rep + 1 in
    let r1 = Common.run_cached ~arch ~seed Common.V_normal b in
    let r2 = Common.run_cached ~arch ~seed (Common.V_no_checks removable) b in
    with_checks.(rep) <- r1.Harness.total_cycles;
    without.(rep) <- r2.Harness.total_cycles;
    overheads.(rep) <- Harness.overhead_window r1
  done;
  let removal = Array.map2 (fun a bb -> a /. bb) with_checks without in
  let sampling = 1.0 /. (1.0 -. Support.Stats.mean overheads) in
  let s_sig =
    Support.Stats.practical_significance ~alpha:0.05
      ~tests:(List.length (Common.suite ()))
      ~min_effect:0.02 ~baseline:with_checks ~variant:without
  in
  {
    s_bench = b;
    s_removal = removal;
    s_sampling = sampling;
    s_leftover = fired <> [];
    s_sig;
  }

let all_speedups () =
  Common.rows_by archs (Common.suite ()) (fun arch b -> speedups_for ~arch b)

let fig6 () =
  let arch = Arch.Arm64 in
  let suite = Common.suite () in
  let rows =
    Common.rows
      (fun b ->
        let removable, fired = Common.removable_groups ~arch b in
        let r1 = Common.run_cached ~arch ~seed:1 Common.V_normal b in
        let r2 =
          Common.run_cached ~arch ~seed:1 (Common.V_no_checks removable) b
        in
        (fired, r1, r2))
      suite
  in
  Support.Table.section
    "Fig 6: relative per-iteration time, with checks vs removed (ARM64)";
  let t =
    Support.Table.create
      ~title:
        "relative steady-state time; (*) marks leftover checks kept for correctness"
      ~columns:
        [ "benchmark"; "time diff"; "deopt events (iteration#)"; "interp/steady";
          "checks left" ]
  in
  List.iter2
    (fun (b : Workloads.Suite.benchmark) row ->
      match row with
      | Error err ->
        Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
          ~reason:(Support.Fault.class_name err)
      | Ok (fired, r1, r2) ->
      let steady1 = Harness.steady_state_cycles r1 in
      let steady2 = Harness.steady_state_cycles r2 in
      let diff = if steady1 > 0.0 then 1.0 -. (steady2 /. steady1) else 0.0 in
      let deopt_iters =
        let out = ref [] in
        Array.iteri
          (fun i d -> if d > 0 then out := Printf.sprintf "%d(x%d)" i d :: !out)
          r1.Harness.iter_deopts;
        List.rev !out
      in
      let deopt_str =
        match deopt_iters with
        | [] -> "-"
        | l when List.length l <= 6 -> String.concat " " l
        | l ->
          String.concat " " (List.filteri (fun i _ -> i < 6) l)
          ^ Printf.sprintf " (+%d more)" (List.length l - 6)
      in
      let interp_ratio =
        if steady1 > 0.0 && Array.length r1.Harness.iter_cycles > 0 then
          r1.Harness.iter_cycles.(0) /. steady1
        else 0.0
      in
      Support.Table.add_row t
        [ b.Workloads.Suite.id ^ (if fired <> [] then " *" else "");
          Printf.sprintf "%.1f%%" (100.0 *. diff);
          deopt_str;
          Printf.sprintf "%.1fx" interp_ratio;
          String.concat "+" (List.map Insn.group_name fired) ])
    suite rows;
  Support.Table.print t;
  (* Headline: mean overall time difference (paper: 8 %). *)
  let diffs =
    List.filter_map
      (function
        | Ok (_, r1, r2) ->
          Some (1.0 -. (r2.Harness.total_cycles /. r1.Harness.total_cycles))
        | Error _ -> None)
      rows
    |> Array.of_list
  in
  if Array.length diffs > 0 then
    Printf.printf "mean overall time difference: %.1f%% (paper: 8%%)\n"
      (100.0 *. Support.Stats.mean diffs)
  else print_endline "mean overall time difference: n/a (all cells failed)"

let fig7 () =
  let by_arch = all_speedups () in
  Support.Table.section
    "Fig 7: per-benchmark speedup estimates, both methods, 95% CIs";
  List.iter
    (fun (arch, rows) ->
      let t =
        Support.Table.create
          ~title:
            (Printf.sprintf
               "%s  (x = statistically significant, + = practically significant > 2%%)"
               (Arch.name arch))
          ~columns:
            [ "benchmark"; "removal speedup"; "ci95"; "sampling speedup";
              "p-value"; "sig" ]
      in
      let n_practical = ref 0 and n_total = ref 0 in
      List.iter
        (fun ((b : Workloads.Suite.benchmark), row) ->
          match row with
          | Error err ->
            Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
              ~reason:(Support.Fault.class_name err)
          | Ok s ->
          incr n_total;
          if s.s_sig.Support.Stats.practical then incr n_practical;
          let lo, hi = Support.Stats.ci95_mean s.s_removal in
          Support.Table.add_row t
            [ s.s_bench.Workloads.Suite.id
              ^ (if s.s_leftover then " *" else "");
              Support.Table.fmt_speedup (Support.Stats.mean s.s_removal);
              Printf.sprintf "[%.3f, %.3f]" lo hi;
              Support.Table.fmt_speedup s.s_sampling;
              Printf.sprintf "%.4f" s.s_sig.Support.Stats.p_value;
              (if s.s_sig.Support.Stats.practical then "x+"
               else if s.s_sig.Support.Stats.significant then "x"
               else "") ])
        rows;
      Support.Table.print t;
      Printf.printf
        "%s: %d/%d benchmarks practically significant (paper: ~2/3 on ARM64)\n"
        (Arch.name arch) !n_practical !n_total)
    by_arch

let fig8 () =
  let by_arch = all_speedups () in
  Support.Table.section "Fig 8: speedups by benchmark category";
  let t =
    Support.Table.create ~title:"geometric-mean speedups per category"
      ~columns:
        [ "category"; "x64 removal"; "x64 sampling"; "arm64 removal";
          "arm64 sampling" ]
  in
  List.iter
    (fun cat ->
      let in_cat (b : Workloads.Suite.benchmark) =
        b.Workloads.Suite.category = cat
      in
      if List.exists in_cat (Common.suite ()) then begin
        let cells =
          List.concat_map
            (fun (_, rows) ->
              (* Failed cells drop out of the category mean; the cell
                 reads n/a only when every benchmark of the category
                 failed. *)
              let ok =
                List.filter_map
                  (fun (b, row) ->
                    match row with
                    | Ok s when in_cat b -> Some s
                    | Ok _ | Error _ -> None)
                  rows
              in
              let geo proj =
                match ok with
                | [] -> "n/a"
                | _ ->
                  Support.Table.fmt_speedup
                    (Support.Stats.geomean
                       (Array.of_list (List.map proj ok)))
              in
              [ geo (fun s -> Support.Stats.mean s.s_removal);
                geo (fun s -> s.s_sampling) ])
            by_arch
        in
        Support.Table.add_row t (Workloads.Suite.category_name cat :: cells)
      end)
    Workloads.Suite.categories;
  Support.Table.print t

let fig9 () =
  let by_arch = all_speedups () in
  Support.Table.section
    "Fig 9: correlation of the two overhead estimators";
  let t =
    Support.Table.create ~title:"sampling-estimate vs removal-estimate"
      ~columns:[ "arch"; "slope"; "intercept"; "R^2"; "pearson r"; "p-value" ]
  in
  List.iter
    (fun (arch, rows) ->
      let pts =
        List.filter_map
          (fun (_, row) ->
            match row with
            | Ok s -> Some (s.s_sampling, Support.Stats.mean s.s_removal)
            | Error _ -> None)
          rows
      in
      let xs = Array.of_list (List.map fst pts) in
      let ys = Array.of_list (List.map snd pts) in
      if Array.length xs < 3 then
        Support.Table.add_row t
          [ Arch.name arch; "n/a"; "n/a"; "n/a"; "n/a"; "(suite too small)" ]
      else begin
        let reg = Support.Stats.linear_regression xs ys in
        let r = Support.Stats.pearson xs ys in
        let p = Support.Stats.correlation_p_value ~n:(Array.length xs) ~r in
        Support.Table.add_row t
          [ Arch.name arch;
            Printf.sprintf "%.2f" reg.Support.Stats.slope;
            Printf.sprintf "%.2f" reg.Support.Stats.intercept;
            Printf.sprintf "%.2f" reg.Support.Stats.r2;
            Printf.sprintf "%.2f" r;
            Printf.sprintf "%.2g" p ]
      end)
    by_arch;
  Support.Table.print t;
  print_endline
    "(paper: R^2 = 0.51 / r = 0.71 on X64, R^2 = 0.36 / r = 0.60 on ARM64,\n\
    \ p < 1e-2 in both cases: the estimators are correlated)"
