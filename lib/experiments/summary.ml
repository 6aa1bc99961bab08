let run () =
  let arch = Arch.Arm64 in
  (* One row per benchmark carrying each cell's own result, so a
     permanently failed cell drops out of only the aggregates that read
     it; a metric whose inputs all failed reads n/a instead of killing
     the whole summary. *)
  let rows =
    Support.Pool.map
      (fun b ->
        let cell variant = Common.run_result ~arch ~seed:1 variant b in
        let calib = Common.removable_groups_result ~arch b in
        ( cell Common.V_normal,
          Result.map snd calib,
          Result.bind calib (fun (removable, _) ->
              cell (Common.V_no_checks removable)),
          cell Common.V_no_branches ))
      (Common.suite ())
  in
  let normals = List.filter_map (fun (r, _, _, _) -> Result.to_option r) rows in
  Support.Table.section "Summary: paper claims vs this reproduction";
  let t =
    Support.Table.create ~title:"headline numbers"
      ~columns:[ "claim"; "paper"; "measured"; "where" ]
  in

  let fmt_or_na f xs =
    match xs with [] -> "n/a (all cells failed)" | _ -> f (Array.of_list xs)
  in

  (* Checks per 100 instructions. *)
  let freqs = List.map Harness.checks_per_100 normals in
  Support.Table.add_row t
    [ "checks per 100 instructions (dynamic)"; "4-5";
      fmt_or_na (fun a -> Printf.sprintf "%.1f" (Support.Stats.mean a)) freqs;
      "fig1" ];

  (* Mean check overhead via removal. *)
  let diffs =
    List.filter_map
      (function
        | Ok r1, Ok _, Ok r2, _ ->
          Some (1.0 -. (r2.Harness.total_cycles /. r1.Harness.total_cycles))
        | _ -> None)
      rows
  in
  Support.Table.add_row t
    [ "mean check overhead (removal method)"; "8%";
      fmt_or_na (fun a -> Support.Table.fmt_pct (Support.Stats.mean a)) diffs;
      "fig6/7" ];

  (* Sampling-method overhead. *)
  let ovhs = List.map Harness.overhead_window normals in
  Support.Table.add_row t
    [ "mean check overhead (PC sampling)"; "5-7%";
      fmt_or_na (fun a -> Support.Table.fmt_pct (Support.Stats.mean a)) ovhs;
      "fig4" ];

  (* Branch-only removal. *)
  let br_deltas, sp_deltas =
    List.split
      (List.filter_map
         (function
           (* Branch removal alters semantics on deopting benchmarks;
              skip runs that diverged (the paper's Fig 10 caveat). *)
           | Ok r1, Ok [], _, Ok r2
             when r1.Harness.error = None && r2.Harness.error = None
                  && r1.Harness.checksum = r2.Harness.checksum ->
             let br =
               100.0
               *. (float_of_int r2.Harness.counters.Perf.branches
                   /. float_of_int (max 1 r1.Harness.counters.Perf.branches)
                  -. 1.0)
             in
             Some (br, r1.Harness.total_cycles /. r2.Harness.total_cycles)
           | _ -> None)
         rows)
  in
  Support.Table.add_row t
    [ "branch reduction from removing deopt branches"; "-20%";
      fmt_or_na
        (fun a -> Printf.sprintf "%+.1f%%" (Support.Stats.mean a))
        br_deltas;
      "fig10" ];
  Support.Table.add_row t
    [ "speedup from removing deopt branches only"; "1-2%";
      fmt_or_na
        (fun a ->
          Printf.sprintf "%+.1f%%" (100.0 *. (Support.Stats.mean a -. 1.0)))
        sp_deltas;
      "fig10" ];

  (* Deopts rare and early. *)
  let early = ref 0 and total = ref 0 in
  List.iter
    (fun r ->
      Array.iteri
        (fun i d ->
          total := !total + d;
          if i < 10 then early := !early + d)
        r.Harness.iter_deopts)
    normals;
  Support.Table.add_row t
    [ "deopt events in the first 10 iterations"; "most";
      (if !total = 0 then "no deopts"
       else Printf.sprintf "%d/%d" !early !total);
      "fig6" ];

  (* Interpreter vs steady-state. *)
  let ratios =
    List.filter_map
      (fun r ->
        let steady = Harness.steady_state_cycles r in
        if steady > 0.0 && Array.length r.Harness.iter_cycles > 0 then
          Some (r.Harness.iter_cycles.(0) /. steady)
        else None)
      normals
  in
  Support.Table.add_row t
    [ "first iteration (interpreted) vs steady state"; "2.5x";
      fmt_or_na
        (fun a -> Printf.sprintf "%.1fx" (Support.Stats.mean a))
        ratios;
      "fig6" ];
  Support.Table.print t;
  print_endline
    "See EXPERIMENTS.md for the scale discussion: the subset engine's\n\
     compiled code has less main-line ballast than real V8, so absolute\n\
     check densities/overheads run higher while orderings and contrasts\n\
     (categories, ISAs, methods) reproduce the paper's shape."
