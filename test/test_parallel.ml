(* End-to-end determinism of the parallel experiment layer: every figure
   fans its rows out over the domain pool and then builds its table
   sequentially from the ordered results, so a VSPEC_JOBS=4 figure must
   print byte-identical stdout to VSPEC_JOBS=1 after the same number of
   simulations, leave bit-identical results for every cell it read, and
   answer a second call entirely from the memo.  The cell runner at
   jobs=1 must also be identical to calling the harness directly. *)

(* The on-disk cache must not leak state between the runs. *)
let () = Unix.putenv "VSPEC_CACHE_DIR" "off"

let iters = 12

let digest (r : Experiments.Harness.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

let with_env vars f =
  List.iter (fun (k, v) -> Unix.putenv k v) vars;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (k, _) -> Unix.putenv k "") vars)
    f

let archs = [ Arch.X64; Arch.Arm64 ]

(* Digests of every cell fig1 reads. *)
let fig1_cells () =
  List.concat_map
    (fun b ->
      List.map
        (fun arch ->
          digest
            (Experiments.Common.run_cached ~arch ~seed:1
               Experiments.Common.V_normal b))
        archs)
    (Experiments.Common.suite ())

(* Digests of every calibration and cell fig7 reads. *)
let fig7_cells () =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun arch ->
          let calib = Experiments.Common.removable_groups ~arch b in
          let removable, _ = calib in
          Digest.to_hex (Digest.string (Marshal.to_string calib []))
          :: List.concat_map
               (fun seed ->
                 let cell variant =
                   digest (Experiments.Common.run_cached ~arch ~seed variant b)
                 in
                 [ cell Experiments.Common.V_normal;
                   cell (Experiments.Common.V_no_checks removable) ])
               (List.init (Experiments.Common.repetitions ()) succ))
        archs)
    (Experiments.Common.suite ())

(* [(stdout, sims, cell digests)] of a cold call of [fig] at [jobs],
   after checking that reading its cells back and a second, warm call
   both simulate nothing, and that the warm call prints the same. *)
let run_figure ~jobs (fig, cells) =
  with_env
    [ ("VSPEC_JOBS", string_of_int jobs); ("VSPEC_BENCH", "DP,HASH");
      ("VSPEC_ITERS", string_of_int iters); ("VSPEC_REPS", "2") ]
    (fun () ->
      Experiments.Common.clear_memo ();
      let out = Test_faults.with_captured_stdout fig in
      let sims, _ = Experiments.Common.cache_stats () in
      let digests = cells () in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: the figure's cells are memo hits" jobs)
        sims
        (fst (Experiments.Common.cache_stats ()));
      let again = Test_faults.with_captured_stdout fig in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: second call runs no new sims" jobs)
        sims
        (fst (Experiments.Common.cache_stats ()));
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d: second call prints the same" jobs)
        out again;
      (out, sims, digests))

let test_figure_schedule_independent fig () =
  let seq, seq_sims, seq_cells = run_figure ~jobs:1 fig in
  let par, par_sims, par_cells = run_figure ~jobs:4 fig in
  Alcotest.(check string) "jobs=4 stdout = jobs=1 stdout" seq par;
  Alcotest.(check (list string)) "jobs=4 cells = jobs=1 cells (full results)"
    seq_cells par_cells;
  Alcotest.(check int) "same simulation count" seq_sims par_sims;
  Alcotest.(check bool) "the figure simulated" true (seq_sims > 0)

let test_jobs1_matches_direct_harness () =
  let b = Option.get (Workloads.Suite.by_id "DP") in
  Experiments.Common.clear_memo ();
  let cached =
    List.hd
      (Support.Pool.map ~jobs:1
         (fun b ->
           Experiments.Common.run_cached ~iterations:iters ~arch:Arch.Arm64
             ~seed:1 Experiments.Common.V_normal b)
         [ b ])
  in
  let direct =
    Experiments.Harness.run ~iterations:iters
      ~config:
        (Experiments.Common.config_for ~arch:Arch.Arm64 ~seed:1
           Experiments.Common.V_normal)
      b
  in
  Alcotest.(check string) "pooled result = direct harness run" (digest direct)
    (digest cached)

let test_single_flight_under_duplication () =
  (* The same cell asked for by many pool jobs still simulates once. *)
  let b = Option.get (Workloads.Suite.by_id "DP") in
  Experiments.Common.clear_memo ();
  ignore
    (Support.Pool.map ~jobs:4
       (fun b ->
         Experiments.Common.run_cached ~iterations:iters ~arch:Arch.Arm64
           ~seed:7 Experiments.Common.V_normal b)
       (List.init 12 (fun _ -> b)));
  let sims, _ = Experiments.Common.cache_stats () in
  Alcotest.(check int) "one simulation for twelve duplicate cells" 1 sims

let suite =
  [
    ( "parallel-determinism",
      [
        Alcotest.test_case "jobs=4 = jobs=1 (full results)" `Quick
          (test_figure_schedule_independent
             (Experiments.Exp_checks.fig1, fig1_cells));
        Alcotest.test_case "fig7 jobs=4 = jobs=1 (full results)" `Quick
          (test_figure_schedule_independent
             (Experiments.Exp_removal.fig7, fig7_cells));
        Alcotest.test_case "jobs=1 = direct harness" `Quick
          test_jobs1_matches_direct_harness;
        Alcotest.test_case "duplicate cells single-flight" `Quick
          test_single_flight_under_duplication;
      ] );
  ]
