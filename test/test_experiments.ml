(* Tests for the measurement harness: the PC-sample attribution window
   heuristic (paper Section III-A), calibration, and the baseline
   tier. *)

let mk_code ?(arch = Arch.Arm64) insns =
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Out_of_bounds; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead } |]
  in
  Code.assemble ~code_id:0 ~name:"t" ~arch ~deopts ~gp_slots:4 ~fp_slots:0
    ~base_addr:0 insns

let test_window_attribution_arm64 () =
  (* ldr; cmp; b.hs deopt: ARM64 window = 2 -> all three attributed. *)
  let prov = Insn.Check { group = Insn.G_boundary; role = Insn.Role_condition } in
  let code =
    mk_code
      [ Insn.make (Insn.Mov (0, Insn.Imm 1));
        Insn.make ~prov (Insn.Ldr (1, Insn.mk_addr 0));
        Insn.make ~prov (Insn.Cmp (0, Insn.Reg 1));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Hs, 0));
        Insn.make Insn.Ret ]
  in
  let samples = [| 10; 10; 10; 10; 10 |] in
  let window = Array.make 6 0 and truth = Array.make 6 0 in
  let total = Experiments.Harness.attribute_code ~code ~samples
      ~window_acc:window ~truth_acc:truth in
  Alcotest.(check int) "total" 50 total;
  let gi = Insn.group_index Insn.G_boundary in
  Alcotest.(check int) "window covers branch + 2 before" 30 window.(gi);
  Alcotest.(check int) "truth covers the 3 tagged insns" 30 truth.(gi);
  (* The mov before the window is main line in both estimates. *)
  Alcotest.(check int) "other groups empty" 0
    (Array.fold_left ( + ) 0 window - window.(gi))

let test_window_attribution_x64 () =
  (* X64 window = 1: only cmp + branch are attributed by the window. *)
  let code =
    mk_code ~arch:Arch.X64
      [ Insn.make (Insn.Mov (0, Insn.Imm 1));
        Insn.make (Insn.Mov (1, Insn.Imm 2));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_condition })
          (Insn.Cmp_mem (0, Insn.mk_addr ~offset:1 1));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Hs, 0));
        Insn.make Insn.Ret ]
  in
  let samples = [| 5; 5; 5; 5; 5 |] in
  let window = Array.make 6 0 and truth = Array.make 6 0 in
  ignore
    (Experiments.Harness.attribute_code ~code ~samples ~window_acc:window
       ~truth_acc:truth);
  let gi = Insn.group_index Insn.G_boundary in
  Alcotest.(check int) "x64 window = branch + 1" 10 window.(gi)

let test_window_skips_pseudos () =
  (* Labels between condition and branch do not consume window slots. *)
  let prov = Insn.Check { group = Insn.G_not_smi; role = Insn.Role_condition } in
  let code =
    mk_code
      [ Insn.make ~prov (Insn.Ldr (1, Insn.mk_addr 0));
        Insn.make (Insn.Label 0);
        Insn.make ~prov (Insn.Tst (1, Insn.Imm 1));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_not_smi; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Ne, 0));
        Insn.make Insn.Ret ]
  in
  let samples = [| 7; 7; 7; 7; 7 |] in
  let window = Array.make 6 0 and truth = Array.make 6 0 in
  ignore
    (Experiments.Harness.attribute_code ~code ~samples ~window_acc:window
       ~truth_acc:truth);
  (* The window group comes from the deopt table's reason (boundary in
     this fixture); the provenance tags feed only the truth buckets. *)
  let gi = Insn.group_index Insn.G_boundary in
  Alcotest.(check int) "window spans over the label" 21 window.(gi);
  Alcotest.(check int) "truth uses provenance" 21
    truth.(Insn.group_index Insn.G_not_smi)

let test_window_near_code_start () =
  (* A deopt branch within the first [w] instructions: the backward walk
     hits the start of the code object and must stop cleanly. *)
  let code =
    mk_code
      [ Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Hs, 0));
        Insn.make Insn.Ret ]
  in
  let wm = Experiments.Harness.check_window_map code in
  let gi = Insn.group_index Insn.G_boundary in
  Alcotest.(check (array int)) "branch at index 0 maps alone" [| gi; -1 |] wm;
  (* One predecessor available, window wants two (ARM64). *)
  let code2 =
    mk_code
      [ Insn.make (Insn.Cmp (0, Insn.Imm 1));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Hs, 0));
        Insn.make Insn.Ret ]
  in
  let wm2 = Experiments.Harness.check_window_map code2 in
  Alcotest.(check (array int)) "partial window near start" [| gi; gi; -1 |] wm2

let test_window_pseudo_dense_prefix () =
  (* Pseudo instructions between the check and its predecessors do not
     consume window slots: the window reaches across them to the [w]
     nearest real instructions. *)
  let code =
    mk_code
      [ Insn.make (Insn.Mov (0, Insn.Imm 1));
        Insn.make (Insn.Label 0);
        Insn.make (Insn.Label 1);
        Insn.make (Insn.Cmp (0, Insn.Imm 2));
        Insn.make (Insn.Label 2);
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Hs, 0));
        Insn.make Insn.Ret ]
  in
  let wm = Experiments.Harness.check_window_map code in
  let gi = Insn.group_index Insn.G_boundary in
  Alcotest.(check (array int)) "window crosses pseudo-dense prefix"
    [| gi; -1; -1; gi; -1; gi; -1 |]
    wm

let test_window_overlapping_checks () =
  (* Two adjacent checks with overlapping windows: instructions already
     claimed by the earlier check keep its group (first-marked wins),
     but claimed slots still consume the later window's budget. *)
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Out_of_bounds; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead };
       { Code.dp_id = 1; reason = Insn.Not_a_smi; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead } |]
  in
  let code =
    Code.assemble ~code_id:0 ~name:"t" ~arch:Arch.Arm64 ~deopts ~gp_slots:4
      ~fp_slots:0 ~base_addr:0
      [ Insn.make (Insn.Mov (0, Insn.Imm 1));
        Insn.make (Insn.Cmp (0, Insn.Imm 2));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_boundary; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Hs, 0));
        Insn.make (Insn.Tst (0, Insn.Imm 1));
        Insn.make
          ~prov:(Insn.Check { group = Insn.G_not_smi; role = Insn.Role_branch })
          (Insn.Deopt_if (Insn.Ne, 1));
        Insn.make Insn.Ret ]
  in
  let wm = Experiments.Harness.check_window_map code in
  let b = Insn.group_index Insn.G_boundary in
  let s = Insn.group_index Insn.G_not_smi in
  (* The second window (w=2) reaches the first branch but cannot steal
     it; the slot still uses up one of its two window entries. *)
  Alcotest.(check (array int)) "overlap resolves to earlier check"
    [| b; b; b; s; s; -1 |]
    wm

let test_harness_run_basic () =
  let b = Option.get (Workloads.Suite.by_id "DP") in
  let config = Engine.default_config ~arch:Arch.Arm64 () in
  let r = Experiments.Harness.run ~iterations:20 ~config b in
  Alcotest.(check (option string)) "no error" None r.Experiments.Harness.error;
  Alcotest.(check bool) "cycles recorded" true
    (Array.for_all (fun c -> c > 0.0) r.Experiments.Harness.iter_cycles);
  Alcotest.(check bool) "jit samples seen" true (r.Experiments.Harness.jit_samples > 0);
  Alcotest.(check bool) "overhead in [0,1]" true
    (let o = Experiments.Harness.overhead_window r in
     o >= 0.0 && o <= 1.0);
  Alcotest.(check bool) "truth <= 1" true
    (Experiments.Harness.overhead_truth r <= 1.0)

let test_calibration_finds_fired_groups () =
  (* A benchmark that always deopts on overflow during warmup. *)
  let src =
    {|
var phase = 0;
function f(x) { return x + x; }
function bench() {
  var s = 0;
  for (var i = 0; i < 20; i++) s = (s + f(i)) % 100003;
  phase = phase + 1;
  if (phase == 8) s = s + f(900000000) % 7;
  return s % 100003;
}
|}
  in
  let b =
    { Workloads.Suite.id = "synthetic"; category = Workloads.Suite.Math;
      description = "overflowing"; source = src }
  in
  let config = Engine.default_config ~arch:Arch.Arm64 () in
  let removable, fired =
    Experiments.Harness.calibrate_removable ~iterations:30 ~config b
  in
  Alcotest.(check bool) "arithmetic group fired" true
    (List.mem Insn.G_arith fired);
  Alcotest.(check bool) "arith not removable" false
    (List.mem Insn.G_arith removable)

let test_baseline_tier () =
  let src =
    (Option.get (Workloads.Suite.by_id "HASH")).Workloads.Suite.source
  in
  let cfg =
    { (Engine.default_config ~arch:Arch.Arm64 ()) with
      Engine.enable_optimizer = false;
      enable_baseline = true }
  in
  let eng = Engine.create cfg src in
  let _ = Engine.run_main eng in
  let h = (Engine.runtime eng).Runtime.heap in
  let v = ref 0 in
  for _ = 1 to 8 do
    v := Engine.call_global eng "bench" [||]
  done;
  (* Correctness vs the interpreter. *)
  let cfg2 = { cfg with Engine.enable_baseline = false } in
  let eng2 = Engine.create cfg2 src in
  let _ = Engine.run_main eng2 in
  let v2 = ref 0 in
  for _ = 1 to 8 do
    v2 := Engine.call_global eng2 "bench" [||]
  done;
  Alcotest.(check bool) "baseline result matches interpreter" true
    (Heap.number_value h !v
    = Heap.number_value (Engine.runtime eng2).Runtime.heap !v2);
  (* Structure: baseline code exists, has no checks, never deopts. *)
  let fid =
    Heap.function_id_of h (Heap.cell_value h (Heap.global_cell h "djb2"))
  in
  Alcotest.(check bool) "tier recorded" true
    (Engine.tier_of_fid eng fid = Some `Baseline);
  (match Engine.code_of_fid eng fid with
  | Some code ->
    Alcotest.(check int) "no checks in baseline code" 0
      (Code.static_check_instructions code);
    Alcotest.(check int) "no deopt points" 0 (Array.length code.Code.deopts)
  | None -> Alcotest.fail "baseline code missing");
  Alcotest.(check (list (pair bool int))) "no deopt events" []
    (List.map (fun (_, n) -> (true, n)) (Engine.deopt_counts eng))

let test_baseline_then_optimize () =
  let src = (Option.get (Workloads.Suite.by_id "DP")).Workloads.Suite.source in
  let cfg =
    { (Engine.default_config ~arch:Arch.Arm64 ()) with
      Engine.enable_baseline = true }
  in
  let eng = Engine.create cfg src in
  let _ = Engine.run_main eng in
  for _ = 1 to 12 do
    ignore (Engine.call_global eng "bench" [||])
  done;
  let h = (Engine.runtime eng).Runtime.heap in
  let fid =
    Heap.function_id_of h (Heap.cell_value h (Heap.global_cell h "dot"))
  in
  Alcotest.(check bool) "tiered up to the optimizer" true
    (Engine.tier_of_fid eng fid = Some `Optimized)

let test_bench_knob () =
  let ids () =
    List.map
      (fun (b : Workloads.Suite.benchmark) -> b.Workloads.Suite.id)
      (Experiments.Common.suite ())
  in
  let rejects value =
    Unix.putenv "VSPEC_BENCH" value;
    match ids () with
    | _ -> Alcotest.failf "VSPEC_BENCH=%S accepted" value
    | exception Support.Knob.Invalid { name; expected; _ } ->
      Alcotest.(check string) "names the knob" "VSPEC_BENCH" name;
      expected
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "VSPEC_BENCH" "")
    (fun () ->
      Unix.putenv "VSPEC_BENCH" "DP, HASH";
      Alcotest.(check (list string)) "ids are trimmed" [ "DP"; "HASH" ]
        (List.sort compare (ids ()));
      let expected = rejects "dp" in
      Alcotest.(check bool) "lower-case id is unknown" true
        (Str.string_match (Str.regexp ".*unknown: dp") expected 0);
      let expected = rejects "DP,NOPE" in
      Alcotest.(check bool) "the unknown id is named" true
        (Str.string_match (Str.regexp ".*unknown: NOPE") expected 0);
      ignore (rejects " , "))

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "window attribution (arm64)" `Quick test_window_attribution_arm64;
        Alcotest.test_case "window attribution (x64)" `Quick test_window_attribution_x64;
        Alcotest.test_case "window skips pseudos" `Quick test_window_skips_pseudos;
        Alcotest.test_case "window near code start" `Quick test_window_near_code_start;
        Alcotest.test_case "pseudo-dense prefix" `Quick test_window_pseudo_dense_prefix;
        Alcotest.test_case "overlapping windows" `Quick test_window_overlapping_checks;
        Alcotest.test_case "run basics" `Quick test_harness_run_basic;
        Alcotest.test_case "calibration" `Quick test_calibration_finds_fired_groups;
        Alcotest.test_case "VSPEC_BENCH ids" `Quick test_bench_knob;
      ] );
    ( "baseline-tier",
      [
        Alcotest.test_case "correct + checkless" `Quick test_baseline_tier;
        Alcotest.test_case "tiers up" `Quick test_baseline_then_optimize;
      ] );
  ]
