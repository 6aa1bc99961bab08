let pct_change a b = if a = 0.0 then 0.0 else 100.0 *. ((b -. a) /. a)

let fig10 () =
  let by_arch =
    Common.rows_by [ Arch.X64; Arch.Arm64 ] (Common.suite ()) (fun arch b ->
        let _, fired = Common.removable_groups ~arch b in
        let r1 = Common.run_cached ~arch ~seed:1 Common.V_normal b in
        let r2 = Common.run_cached ~arch ~seed:1 Common.V_no_branches b in
        (fired, r1, r2))
  in
  Support.Table.section
    "Fig 10: relative change of HW metrics after removing only check branches";
  List.iter
    (fun (arch, rows) ->
      let t =
        Support.Table.create
          ~title:(Printf.sprintf "%s (negative = reduction)" (Arch.name arch))
          ~columns:
            [ "category"; "instructions"; "branches"; "mispredicts"; "cycles";
              "frontend-stall share"; "speedup" ]
      in
      List.iter
        (fun cat ->
          let in_cat ((b : Workloads.Suite.benchmark), _) =
            b.Workloads.Suite.category = cat
          in
          if List.exists in_cat rows then begin
            let acc = Array.make 6 0.0 in
            let used = ref 0 in
            List.iter
              (fun row ->
                match row with
                (* Branch removal is only meaningful when no check would
                   have fired AND the checksum is intact: a divergent
                   run can be arbitrarily (and meaninglessly) fast.
                   Failed cells count like diverged ones: excluded. *)
                | (_, Ok (fired, r1, r2))
                  when in_cat row && fired = [] && r1.Harness.error = None
                       && r2.Harness.error = None
                       && r1.Harness.checksum = r2.Harness.checksum ->
                incr used;
                let c1 = r1.Harness.counters and c2 = r2.Harness.counters in
                let fi = float_of_int in
                acc.(0) <-
                  acc.(0)
                  +. pct_change (fi c1.Perf.instructions) (fi c2.Perf.instructions);
                acc.(1) <-
                  acc.(1) +. pct_change (fi c1.Perf.branches) (fi c2.Perf.branches);
                acc.(2) <-
                  acc.(2)
                  +. pct_change (fi c1.Perf.mispredicts) (fi c2.Perf.mispredicts);
                acc.(3) <-
                  acc.(3)
                  +. pct_change r1.Harness.total_cycles r2.Harness.total_cycles;
                let share r =
                  r.Harness.counters.Perf.stall.Perf.frontend /. r.Harness.total_cycles
                in
                acc.(4) <- acc.(4) +. (100.0 *. (share r2 -. share r1));
                acc.(5) <-
                  acc.(5) +. (r1.Harness.total_cycles /. r2.Harness.total_cycles)
                | _ -> ())
              rows;
            let n = float_of_int (max 1 !used) in
            Support.Table.add_row t
              [ Workloads.Suite.category_name cat;
                Printf.sprintf "%+.1f%%" (acc.(0) /. n);
                Printf.sprintf "%+.1f%%" (acc.(1) /. n);
                Printf.sprintf "%+.1f%%" (acc.(2) /. n);
                Printf.sprintf "%+.1f%%" (acc.(3) /. n);
                Printf.sprintf "%+.1f pp" (acc.(4) /. n);
                Support.Table.fmt_speedup (acc.(5) /. n) ]
          end)
        Workloads.Suite.categories;
      Support.Table.print t)
    by_arch;
  print_endline
    "(paper: ~-5% instructions, ~-20% branches, only -2..-5% mispredicts,\n\
    \ 1-2% speedup; on X64 frontend-stall share increases.  Benchmarks\n\
    \ whose checks fire, or whose checksum diverges without the deopt\n\
    \ branches, are excluded -- removal would change their behavior.)"
