(* Engine-level behavior: GC under pressure, reproducibility, counter
   sanity, the extended-ISA bailout path, and print output. *)

let tree_src = (Option.get (Workloads.Suite.by_id "TREE")).Workloads.Suite.source

let test_gc_stress_correct () =
  (* A heap barely big enough forces many collections mid-benchmark;
     results must not change. *)
  let small =
    { (Engine.default_config ~arch:Arch.Arm64 ()) with
      Engine.heap_size = 1 lsl 16;
      gc_threshold_words = 1 lsl 13 }
  in
  let big = Engine.default_config ~arch:Arch.Arm64 () in
  let run cfg =
    let eng = Engine.create cfg tree_src in
    let _ = Engine.run_main eng in
    let h = (Engine.runtime eng).Runtime.heap in
    let v = ref 0 in
    for _ = 1 to 40 do
      v := Engine.call_global eng "bench" [||];
      Engine.maybe_gc eng
    done;
    (Heap.number_value h !v, Heap.gc_count h)
  in
  let v_small, gcs_small = run small in
  let v_big, _ = run big in
  Alcotest.(check bool) "collections happened" true (gcs_small > 0);
  Alcotest.(check bool) "results equal under GC pressure" true (v_small = v_big)

let test_determinism_same_seed () =
  let src = (Option.get (Workloads.Suite.by_id "RICH")).Workloads.Suite.source in
  let run seed =
    let cfg = { (Engine.default_config ~arch:Arch.Arm64 ()) with Engine.seed } in
    let eng = Engine.create cfg src in
    let _ = Engine.run_main eng in
    for _ = 1 to 10 do
      ignore (Engine.call_global eng "bench" [||]);
      Engine.iteration_safepoint eng
    done;
    Engine.cycles eng
  in
  Alcotest.(check bool) "same seed, same cycles" true (run 7 = run 7);
  Alcotest.(check bool) "different seed, different cycles" true (run 7 <> run 8)

let test_counter_sanity () =
  let src = (Option.get (Workloads.Suite.by_id "DP")).Workloads.Suite.source in
  let eng = Engine.create (Engine.default_config ~arch:Arch.Arm64 ()) src in
  let _ = Engine.run_main eng in
  for _ = 1 to 10 do
    ignore (Engine.call_global eng "bench" [||])
  done;
  let c = (Engine.cpu eng).Cpu.counters in
  Alcotest.(check bool) "taken <= branches" true
    (c.Perf.taken_branches <= c.Perf.branches);
  Alcotest.(check bool) "mispredicts <= branches" true
    (c.Perf.mispredicts <= c.Perf.branches);
  Alcotest.(check bool) "branches <= instructions" true
    (c.Perf.branches <= c.Perf.instructions);
  Alcotest.(check bool) "jit <= instructions" true
    (c.Perf.jit_instructions <= c.Perf.instructions);
  Alcotest.(check bool) "checks <= jit instructions" true
    (c.Perf.check_instructions <= c.Perf.jit_instructions);
  Alcotest.(check bool) "cycles positive" true (Engine.cycles eng > 0.0);
  Alcotest.(check bool) "stall counters nonnegative" true
    (c.Perf.frontend_stall >= 0.0 && c.Perf.backend_stall >= 0.0)

let test_smi_ext_bailout_roundtrip () =
  (* jsldrsmi's REG_BA bailout must resume with interpreter semantics. *)
  let src =
    {|
var data = [2, 4, 6, 8];
function pick(i) { return data[i] * 3; }
function bench() { return pick(0) + pick(1) + pick(2) + pick(3); }
|}
  in
  let cfg = Engine.default_config ~arch:Arch.Arm64_smi_ext () in
  let eng = Engine.create cfg src in
  let _ = Engine.run_main eng in
  let h = (Engine.runtime eng).Runtime.heap in
  for _ = 1 to 10 do
    ignore (Engine.call_global eng "bench" [||])
  done;
  let data = Heap.cell_value h (Heap.global_cell h "data") in
  Heap.array_set h data 2 (Heap.alloc_heap_number h 6.5);
  let v = Engine.call_global eng "bench" [||] in
  Alcotest.(check bool) "correct after fused-load bailout" true
    (Heap.number_value h v = (2. +. 4. +. 6.5 +. 8.) *. 3.);
  Alcotest.(check bool) "a not-a-smi deopt fired" true
    (List.exists
       (fun (r, n) -> r = Insn.Not_a_smi && n > 0)
       (Engine.deopt_counts eng))

let test_print_output () =
  let eng =
    Engine.create
      (Engine.default_config ~arch:Arch.Arm64 ())
      {|print("a", 1, 2.5, true, null, [1,2]); print("second");|}
  in
  let _ = Engine.run_main eng in
  Alcotest.(check string) "print formatting"
    "a 1 2.5 true null 1,2\nsecond\n" (Engine.output eng)

let test_compile_now_unknown () =
  let eng =
    Engine.create (Engine.default_config ~arch:Arch.Arm64 ()) "var x = 1;"
  in
  let _ = Engine.run_main eng in
  (match Engine.compile_now eng "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compiling a non-function should fail");
  match Engine.compile_now eng "print" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compiling a builtin should fail"

let base_suite =
  [
    ( "engine",
      [
        Alcotest.test_case "gc stress correctness" `Quick test_gc_stress_correct;
        Alcotest.test_case "seeded determinism" `Quick test_determinism_same_seed;
        Alcotest.test_case "counter sanity" `Quick test_counter_sanity;
        Alcotest.test_case "smi-ext bailout roundtrip" `Quick test_smi_ext_bailout_roundtrip;
        Alcotest.test_case "print output" `Quick test_print_output;
        Alcotest.test_case "compile_now errors" `Quick test_compile_now_unknown;
      ] );
  ]

let test_map_check_correct_and_bails () =
  (* The future-work fused map check: correct results, and the bailout
     resumes the interpreter when the shape changes. *)
  let src =
    {|
function Box(v) { this.v = v; }
var boxes = [];
for (var i = 0; i < 8; i++) boxes.push(new Box(i * 3));
function total() {
  var s = 0;
  for (var i = 0; i < boxes.length; i++) s = s + boxes[i].v;
  return s;
}
function bench() { return total(); }
|}
  in
  let cfg =
    { (Engine.default_config ~arch:Arch.Arm64_smi_ext ()) with
      Engine.fuse_map_checks = true }
  in
  let eng = Engine.create cfg src in
  let _ = Engine.run_main eng in
  let h = (Engine.runtime eng).Runtime.heap in
  let v = ref 0 in
  for _ = 1 to 10 do
    v := Engine.call_global eng "bench" [||]
  done;
  Alcotest.(check bool) "sum correct" true (Heap.number_value h !v = 84.0);
  (* Fused map checks actually present in the hot code. *)
  let has_fused =
    List.exists
      (fun (code : Code.t) ->
        Array.exists
          (fun i ->
            match i.Insn.kind with Insn.Js_chk_map _ -> true | _ -> false)
          code.Code.insns)
      (Engine.all_codes eng)
  in
  Alcotest.(check bool) "jschkmap emitted" true has_fused;
  (* Change one box's shape: the fused check must bail, not misread. *)
  let boxes = Heap.cell_value h (Heap.global_cell h "boxes") in
  let b3 = Heap.array_get h boxes 3 in
  Heap.set_property h b3 "extra" (Value.smi 1);
  let v2 = Engine.call_global eng "bench" [||] in
  Alcotest.(check bool) "still correct after shape change" true
    (Heap.number_value h v2 = 84.0);
  Alcotest.(check bool) "wrong-map deopt fired" true
    (List.exists
       (fun (r, n) -> r = Insn.Wrong_map && n > 0)
       (Engine.deopt_counts eng))

let extra_engine_suite =
  [ ( "map-fuse",
      [ Alcotest.test_case "correct + bails" `Quick test_map_check_correct_and_bails ] ) ]

let suite = base_suite @ extra_engine_suite
