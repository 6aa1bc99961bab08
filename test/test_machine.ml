(* Machine substrate tests: the executor's instruction semantics,
   deoptimization paths, the fused SMI load, the cache model, the branch
   predictor, and the timing model's basic invariants. *)

let mk_code ?(deopts = [||]) ?(gp_slots = 4) insns =
  Code.assemble ~code_id:0 ~name:"test" ~arch:Arch.Arm64 ~deopts ~gp_slots
    ~fp_slots:4 ~base_addr:0x100
    (List.map (fun k -> Insn.make k) insns)

let null_host memory =
  {
    Exec.memory;
    call_builtin = (fun _ _ -> 0);
    call_js = (fun _ _ -> 0);
  }

let run ?(memory = Array.make 64 0) ?(args = [||]) insns =
  let cpu = Cpu.create Cpu.fast_arm64 in
  (cpu, Exec.run cpu ~host:(null_host memory) ~code:(mk_code insns) ~args)

let expect_done name expected outcome =
  match outcome with
  | Exec.Done v -> Alcotest.(check int) name expected v
  | Exec.Deopt _ -> Alcotest.fail (name ^ ": unexpected deopt")

let test_mov_alu () =
  let _, r =
    run
      [ Insn.Mov (0, Insn.Imm 20);
        Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 22; set_flags = false };
        Insn.Ret ]
  in
  expect_done "add imm" 42 r;
  let _, r2 =
    run
      [ Insn.Mov (0, Insn.Imm 7);
        Insn.Mov (1, Insn.Imm 3);
        Insn.Alu { op = Insn.Mul; dst = 0; src = 0; rhs = Insn.Reg 1; set_flags = false };
        Insn.Ret ]
  in
  expect_done "mul" 21 r2

let test_shifts_32bit () =
  let _, r =
    run
      [ Insn.Mov (0, Insn.Imm (-8));
        Insn.Alu { op = Insn.Asr; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
        Insn.Ret ]
  in
  expect_done "asr sign extends" (-4) r;
  let _, r2 =
    run
      [ Insn.Mov (0, Insn.Imm (-8));
        Insn.Alu { op = Insn.Lsr; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
        Insn.Ret ]
  in
  expect_done "lsr is 32-bit logical" 0x7FFFFFFC r2

let test_conditions () =
  (* r0 = (a < b) ? 1 : 0 for several conds via Bcond. *)
  let check_cond name cond a b expected =
    let _, r =
      run
        [ Insn.Mov (1, Insn.Imm a);
          Insn.Cmp (1, Insn.Imm b);
          Insn.Mov (0, Insn.Imm 1);
          Insn.Bcond (cond, 0);
          Insn.Mov (0, Insn.Imm 0);
          Insn.Label 0;
          Insn.Ret ]
    in
    expect_done name expected r
  in
  check_cond "lt true" Insn.Lt 1 2 1;
  check_cond "lt false" Insn.Lt 2 1 0;
  check_cond "ge eq" Insn.Ge 2 2 1;
  check_cond "eq" Insn.Eq 5 5 1;
  check_cond "ne" Insn.Ne 5 5 0;
  (* Unsigned: -1 is huge. *)
  check_cond "hs unsigned" Insn.Hs (-1) 1 1;
  check_cond "lo unsigned" Insn.Lo (-1) 1 0

let test_overflow_flag () =
  let max32 = 0x7FFFFFFF in
  let _, r =
    run
      [ Insn.Mov (1, Insn.Imm max32);
        Insn.Alu { op = Insn.Add; dst = 1; src = 1; rhs = Insn.Imm 1; set_flags = true };
        Insn.Mov (0, Insn.Imm 1);
        Insn.Bcond (Insn.Vs, 0);
        Insn.Mov (0, Insn.Imm 0);
        Insn.Label 0;
        Insn.Ret ]
  in
  expect_done "32-bit add overflow sets V" 1 r

let test_loads_stores () =
  let memory = Array.make 64 0 in
  memory.(10) <- 1234;
  let _, r =
    run ~memory
      [ Insn.Mov (1, Insn.Imm 20) (* address 20 = word 10 *);
        Insn.Ldr (0, Insn.mk_addr 1);
        Insn.Str (Insn.mk_addr ~offset:2 1, 0) (* word 11 *);
        Insn.Ret ]
  in
  expect_done "load" 1234 r;
  Alcotest.(check int) "store" 1234 memory.(11)

let test_indexed_addressing () =
  let memory = Array.make 64 0 in
  memory.(8) <- 7;
  memory.(9) <- 8;
  let _, r =
    run ~memory
      [ Insn.Mov (1, Insn.Imm 16) (* base: word 8 *);
        Insn.Mov (2, Insn.Imm 2) (* tagged smi 1 *);
        Insn.Ldr (0, Insn.mk_addr ~index:2 ~scale:1 1);
        Insn.Ret ]
  in
  expect_done "indexed tagged-scale load" 8 r

let test_float_ops () =
  let memory = Array.make 64 0 in
  let bits = Int64.bits_of_float 2.5 in
  memory.(4) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  memory.(5) <- Int64.to_int (Int64.shift_right_logical bits 32);
  let _, r =
    run ~memory
      [ Insn.Mov (1, Insn.Imm 8);
        Insn.Ldr_f (0, Insn.mk_addr 1);
        Insn.Fmov_imm (1, 1.5);
        Insn.Falu { op = Insn.Fadd; dst = 0; a = 0; b = 1 };
        Insn.Fcvtzs (0, 0);
        Insn.Ret ]
  in
  expect_done "2.5 + 1.5 truncated" 4 r

let test_fcmp_nan () =
  (* NaN comparisons: all ordered conds false, Ne true. *)
  let run_cond cond =
    let _, r =
      run
        [ Insn.Fmov_imm (0, Float.nan);
          Insn.Fmov_imm (1, 1.0);
          Insn.Fcmp (0, 1);
          Insn.Mov (0, Insn.Imm 1);
          Insn.Bcond (cond, 0);
          Insn.Mov (0, Insn.Imm 0);
          Insn.Label 0;
          Insn.Ret ]
    in
    match r with Exec.Done v -> v | _ -> -1
  in
  Alcotest.(check int) "nan lt false" 0 (run_cond Insn.Lt);
  Alcotest.(check int) "nan gt false" 0 (run_cond Insn.Gt);
  Alcotest.(check int) "nan eq false" 0 (run_cond Insn.Eq);
  Alcotest.(check int) "nan ne true" 1 (run_cond Insn.Ne)

let test_deopt_path () =
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Not_a_smi; bc_pc = 7;
         frame = [| Code.Fv_reg 1; Code.Fv_const 99 |];
         accumulator = Code.Fv_reg 0 } |]
  in
  let code =
    mk_code ~deopts
      [ Insn.Mov (0, Insn.Imm 41);
        Insn.Mov (1, Insn.Imm 5);
        Insn.Tst (1, Insn.Imm 1);
        Insn.Deopt_if (Insn.Ne, 0);
        Insn.Ret ]
  in
  let cpu = Cpu.create Cpu.fast_arm64 in
  match Exec.run cpu ~host:(null_host (Array.make 8 0)) ~code ~args:[||] with
  | Exec.Done _ -> Alcotest.fail "expected deopt"
  | Exec.Deopt { deopt_id; reason; snapshot; via_smi_ext } ->
    Alcotest.(check int) "deopt id" 0 deopt_id;
    Alcotest.(check bool) "reason" true (reason = Insn.Not_a_smi);
    Alcotest.(check bool) "not via ext" false via_smi_ext;
    let mat = Exec.frame_value snapshot ~materialize_double:(fun _ -> -1) in
    Alcotest.(check int) "frame reg" 5 (mat deopts.(0).Code.frame.(0));
    Alcotest.(check int) "frame const" 99 (mat deopts.(0).Code.frame.(1));
    Alcotest.(check int) "acc" 41 (mat deopts.(0).Code.accumulator)

let test_jsldrsmi_fast_and_fail () =
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Not_a_smi; bc_pc = 0;
         frame = [||]; accumulator = Code.Fv_dead } |]
  in
  let mk word =
    let memory = Array.make 16 0 in
    memory.(4) <- word;
    let code =
      mk_code ~deopts
        [ Insn.Mov (1, Insn.Imm 0x200) (* REG_BA *);
          Insn.Msr (Insn.Reg_ba, 1);
          Insn.Mov (1, Insn.Imm 8);
          Insn.Js_ldr_smi { dst = 0; mem = Insn.mk_addr 1; deopt = 0 };
          Insn.Ret ]
    in
    let cpu = Cpu.create Cpu.fast_arm64 in
    Exec.run cpu ~host:(null_host memory) ~code ~args:[||]
  in
  (match mk (Value.smi 21) with
  | Exec.Done v -> Alcotest.(check int) "untagged result" 21 v
  | Exec.Deopt _ -> Alcotest.fail "smi load should succeed");
  match mk (Value.pointer 3) with
  | Exec.Done _ -> Alcotest.fail "pointer should fail the check"
  | Exec.Deopt { via_smi_ext; reason; _ } ->
    Alcotest.(check bool) "bails via REG_BA" true via_smi_ext;
    Alcotest.(check bool) "reason" true (reason = Insn.Not_a_smi)

let test_spill_reload () =
  let _, r =
    run
      [ Insn.Mov (0, Insn.Imm 17);
        Insn.Spill (2, 0);
        Insn.Mov (0, Insn.Imm 0);
        Insn.Reload (0, 2);
        Insn.Ret ]
  in
  expect_done "spill/reload" 17 r

let test_builtin_call_convention () =
  let got = ref [||] in
  let host =
    { Exec.memory = Array.make 8 0;
      call_builtin =
        (fun b argv ->
          Alcotest.(check int) "builtin id" 9 b;
          got := Array.copy argv;
          777);
      call_js = (fun _ _ -> 0) }
  in
  let code =
    mk_code
      [ Insn.Mov (0, Insn.Imm 1);
        Insn.Mov (1, Insn.Imm 2);
        Insn.Mov (2, Insn.Imm 3);
        Insn.Call (Insn.Builtin 9, 3);
        Insn.Ret ]
  in
  let cpu = Cpu.create Cpu.fast_arm64 in
  (match Exec.run cpu ~host ~code ~args:[||] with
  | Exec.Done v -> Alcotest.(check int) "result in r0" 777 v
  | _ -> Alcotest.fail "deopt");
  Alcotest.(check (array int)) "args r0..r2" [| 1; 2; 3 |] !got

let test_machine_fault () =
  Alcotest.(check bool) "unaligned faults" true
    (try
       ignore
         (run
            [ Insn.Mov (1, Insn.Imm 3) (* odd address *);
              Insn.Ldr (0, Insn.mk_addr 1);
              Insn.Ret ]);
       false
     with Exec.Machine_fault _ -> true);
  Alcotest.(check bool) "out of range faults" true
    (try
       ignore
         (run
            [ Insn.Mov (1, Insn.Imm 100000);
              Insn.Ldr (0, Insn.mk_addr 1);
              Insn.Ret ]);
       false
     with Exec.Machine_fault _ -> true)

(* ---------------- Cache ---------------- *)

let test_cache_basics () =
  let c = Cache.create ~name:"t" ~size_words:1024 ~assoc:2 ~line_words:16 ~hit_latency:3 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "warm hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 15);
  Alcotest.(check bool) "next line miss" false (Cache.access c 16)

let test_cache_eviction () =
  (* Direct-mapped-ish: 2-way, force 3 lines into one set. *)
  let c = Cache.create ~name:"t" ~size_words:64 ~assoc:2 ~line_words:16 ~hit_latency:1 in
  (* sets = 64/16/2 = 2; lines 0, 2, 4 all map to set 0. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 32);
  ignore (Cache.access c 64);
  Alcotest.(check bool) "lru evicted" false (Cache.access c 0)

let test_hierarchy_latency () =
  let h = Cache.default_hierarchy () in
  let cold = Cache.data_latency h 4096 in
  let warm = Cache.data_latency h 4096 in
  Alcotest.(check bool) "cold slower than warm" true (cold > warm);
  Alcotest.(check int) "warm = L1 hit" (Cache.hit_latency h.Cache.l1d) warm

(* ---------------- Predictor ---------------- *)

let test_predictor_learns_loop () =
  let p = Predictor.create () in
  (* A branch taken 50 times then not taken: mispredicts should be a
     handful, not ~50. *)
  let wrong = ref 0 in
  for _ = 1 to 50 do
    if not (Predictor.predict_and_update p ~pc:100 ~taken:true) then incr wrong
  done;
  Alcotest.(check bool) "learns taken branch" true (!wrong <= 3);
  Alcotest.(check bool) "exit mispredicted" false
    (Predictor.predict_and_update p ~pc:100 ~taken:false)

let test_predictor_never_taken () =
  let p = Predictor.create () in
  let wrong = ref 0 in
  for _ = 1 to 200 do
    if not (Predictor.predict_and_update p ~pc:64 ~taken:false) then incr wrong
  done;
  (* Deopt-style never-taken branches are essentially free. *)
  Alcotest.(check bool) "never-taken ~perfect" true (!wrong <= 2)

(* ---------------- Timing ---------------- *)

let test_timing_monotonic_and_counts () =
  let cpu, _ =
    run
      [ Insn.Mov (0, Insn.Imm 1);
        Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
        Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
        Insn.Ret ]
  in
  Alcotest.(check bool) "cycles positive" true (Cpu.cycles cpu > 0.0);
  Alcotest.(check int) "retired count" 4 cpu.Cpu.counters.Perf.instructions

let test_dependent_chain_slower () =
  (* Same instruction count; one is a dependency chain, one is parallel. *)
  let chain =
    List.init 32 (fun _ ->
        Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false })
  in
  let parallel =
    List.init 32 (fun i ->
        Insn.Alu { op = Insn.Add; dst = 1 + (i mod 8); src = 9; rhs = Insn.Imm 1;
                   set_flags = false })
  in
  let time insns =
    let cpu, _ = run ([ Insn.Mov (0, Insn.Imm 0); Insn.Mov (9, Insn.Imm 0) ] @ insns @ [ Insn.Ret ]) in
    Cpu.cycles cpu
  in
  Alcotest.(check bool) "O3: chain slower than parallel" true
    (time chain > time parallel)

let test_inorder_slower_than_o3 () =
  let insns =
    [ Insn.Mov (1, Insn.Imm 8) ]
    @ List.concat
        (List.init 16 (fun _ ->
             [ Insn.Ldr (2, Insn.mk_addr 1);
               Insn.Alu { op = Insn.Add; dst = 3; src = 3; rhs = Insn.Imm 1; set_flags = false } ]))
    @ [ Insn.Mov (0, Insn.Reg 3); Insn.Ret ]
  in
  let time cfg =
    let cpu = Cpu.create cfg in
    let memory = Array.make 64 0 in
    ignore (Exec.run cpu ~host:(null_host memory) ~code:(mk_code insns) ~args:[||]);
    Cpu.cycles cpu
  in
  Alcotest.(check bool) "in-order slower" true
    (time Cpu.inorder_a55 > time Cpu.o3_kpg)

let test_counters_branches () =
  let cpu, _ =
    run
      [ Insn.Mov (0, Insn.Imm 0);
        Insn.Label 1;
        Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
        Insn.Cmp (0, Insn.Imm 10);
        Insn.Bcond (Insn.Lt, 1);
        Insn.Ret ]
  in
  Alcotest.(check int) "branch count" (10 + 1)
    cpu.Cpu.counters.Perf.branches (* 10 loop branches + ret *);
  Alcotest.(check int) "loop result" 10
    (match
       run
         [ Insn.Mov (0, Insn.Imm 0);
           Insn.Label 1;
           Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
           Insn.Cmp (0, Insn.Imm 10);
           Insn.Bcond (Insn.Lt, 1);
           Insn.Ret ]
     with
    | _, Exec.Done v -> v
    | _ -> -1)

let test_sampler () =
  let s = Perf.create_sampler ~period:10.0 ~seed:1 in
  let cpu = Cpu.create ~sampler:s Cpu.fast_arm64 in
  let insns =
    [ Insn.Mov (0, Insn.Imm 0); Insn.Label 1;
      Insn.Alu { op = Insn.Add; dst = 0; src = 0; rhs = Insn.Imm 1; set_flags = false };
      Insn.Cmp (0, Insn.Imm 2000);
      Insn.Bcond (Insn.Lt, 1);
      Insn.Ret ]
  in
  ignore (Exec.run cpu ~host:(null_host (Array.make 8 0)) ~code:(mk_code insns) ~args:[||]);
  Alcotest.(check bool) "samples collected" true (Perf.total_samples s > 10);
  let per_insn = Perf.samples_for s ~code_id:0 ~size:6 in
  Alcotest.(check int) "attributed to code 0" (Perf.total_samples s)
    (Array.fold_left ( + ) 0 per_insn)

let prop_alu_matches_reference =
  (* Executor ALU semantics vs a 32-bit reference model. *)
  let sext32 x =
    let w = x land 0xFFFFFFFF in
    if w >= 0x80000000 then w - 0x100000000 else w
  in
  QCheck.Test.make ~name:"exec: alu matches 32-bit reference" ~count:300
    QCheck.(triple (int_range (-1000000) 1000000) (int_range (-1000000) 1000000)
              (int_range 0 5))
    (fun (a, b, opi) ->
      let op, reference =
        match opi with
        | 0 -> (Insn.Add, sext32 (a + b))
        | 1 -> (Insn.Sub, sext32 (a - b))
        | 2 -> (Insn.And, sext32 (a land b))
        | 3 -> (Insn.Orr, sext32 (a lor b))
        | 4 -> (Insn.Eor, sext32 (a lxor b))
        | _ -> (Insn.Mul, sext32 (a * b))
      in
      let _, r =
        run
          [ Insn.Mov (0, Insn.Imm a);
            Insn.Mov (1, Insn.Imm b);
            Insn.Alu { op; dst = 0; src = 0; rhs = Insn.Reg 1; set_flags = false };
            Insn.Ret ]
      in
      match r with Exec.Done v -> v = reference | _ -> false)

let base_suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "exec",
      [
        Alcotest.test_case "mov/alu" `Quick test_mov_alu;
        Alcotest.test_case "32-bit shifts" `Quick test_shifts_32bit;
        Alcotest.test_case "conditions" `Quick test_conditions;
        Alcotest.test_case "overflow flag" `Quick test_overflow_flag;
        Alcotest.test_case "loads/stores" `Quick test_loads_stores;
        Alcotest.test_case "indexed addressing" `Quick test_indexed_addressing;
        Alcotest.test_case "float ops" `Quick test_float_ops;
        Alcotest.test_case "fcmp NaN" `Quick test_fcmp_nan;
        Alcotest.test_case "deopt path" `Quick test_deopt_path;
        Alcotest.test_case "jsldrsmi fast/fail" `Quick test_jsldrsmi_fast_and_fail;
        Alcotest.test_case "spill/reload" `Quick test_spill_reload;
        Alcotest.test_case "builtin call convention" `Quick test_builtin_call_convention;
        Alcotest.test_case "machine faults" `Quick test_machine_fault;
        q prop_alu_matches_reference;
      ] );
    ( "cache",
      [
        Alcotest.test_case "basics" `Quick test_cache_basics;
        Alcotest.test_case "eviction" `Quick test_cache_eviction;
        Alcotest.test_case "hierarchy latency" `Quick test_hierarchy_latency;
      ] );
    ( "predictor",
      [
        Alcotest.test_case "learns loops" `Quick test_predictor_learns_loop;
        Alcotest.test_case "never-taken free" `Quick test_predictor_never_taken;
      ] );
    ( "timing",
      [
        Alcotest.test_case "monotonic + counts" `Quick test_timing_monotonic_and_counts;
        Alcotest.test_case "dependency chains cost" `Quick test_dependent_chain_slower;
        Alcotest.test_case "in-order vs O3" `Quick test_inorder_slower_than_o3;
        Alcotest.test_case "branch counters" `Quick test_counters_branches;
        Alcotest.test_case "pc sampler" `Quick test_sampler;
      ] );
  ]

let test_jschkmap_fast_and_fail () =
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Wrong_map; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead } |]
  in
  let mk map_word =
    let memory = Array.make 16 0 in
    memory.(4) <- map_word (* object header at word 4, address 8 *);
    let code =
      mk_code ~deopts
        [ Insn.Mov (1, Insn.Imm 0x200);
          Insn.Msr (Insn.Reg_ba, 1);
          Insn.Mov (1, Insn.Imm 9) (* tagged pointer to word 4 *);
          Insn.Js_chk_map
            { mem = Insn.mk_addr ~offset:(-1) 1; expected = 77; deopt = 0 };
          Insn.Mov (0, Insn.Imm 1);
          Insn.Ret ]
    in
    let cpu = Cpu.create Cpu.fast_arm64 in
    Exec.run cpu ~host:(null_host memory) ~code ~args:[||]
  in
  (match mk 77 with
  | Exec.Done v -> Alcotest.(check int) "matching map passes" 1 v
  | Exec.Deopt _ -> Alcotest.fail "matching map should pass");
  match mk 99 with
  | Exec.Done _ -> Alcotest.fail "wrong map should bail"
  | Exec.Deopt { reason; via_smi_ext; _ } ->
    Alcotest.(check bool) "wrong-map reason" true (reason = Insn.Wrong_map);
    Alcotest.(check bool) "branch-free bailout" true via_smi_ext

(* ---------------- Engine parity ---------------- *)

let with_engine engine f =
  Exec.set_engine (Some engine);
  Fun.protect ~finally:(fun () -> Exec.set_engine None) f

(* A float access whose FIRST word is in range but whose second is not
   must fault like any other wild access on both engines (historically
   the second word escaped the bounds check and surfaced as a raw
   [Invalid_argument]). *)
let test_float_mem_second_word_bounds () =
  let last_word_addr = 2 * 63 (* memory is 64 words; word 64 is OOB *) in
  let ldr_f =
    [ Insn.Mov (1, Insn.Imm last_word_addr);
      Insn.Ldr_f (0, Insn.mk_addr 1);
      Insn.Ret ]
  in
  let str_f =
    [ Insn.Fmov_imm (0, 1.5);
      Insn.Mov (1, Insn.Imm last_word_addr);
      Insn.Str_f (Insn.mk_addr 1, 0);
      Insn.Ret ]
  in
  List.iter
    (fun (engine, ename) ->
      with_engine engine (fun () ->
          List.iter
            (fun (name, insns) ->
              match ignore (run insns) with
              | () -> Alcotest.fail (name ^ ": second word escaped bounds")
              | exception Exec.Machine_fault msg ->
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s fault message" name ename)
                  "test: address 128 out of range" msg)
            [ ("ldr_f", ldr_f); ("str_f", str_f) ]))
    [ (Exec.Direct, "direct"); (Exec.Decoded, "decoded") ]

(* Same program, fresh CPUs: both engines must agree on the outcome (or
   the machine fault) and on the complete timing/counter state.  Besides
   a plain loop, two programs leave a batched block mid-way, where the
   decoded engine must refund the unexecuted block suffix exactly: a
   deopt taken by a check's deopt_if, and a fault in a load that has
   already issued. *)
let test_engines_bit_identical () =
  let alu ?(set_flags = false) op dst src rhs =
    Insn.Alu { op; dst; src; rhs; set_flags }
  in
  let check role k =
    Insn.make ~prov:(Insn.Check { group = Insn.G_boundary; role }) k
  in
  let plain = List.map Insn.make in
  let loop =
    plain
      [ Insn.Mov (0, Insn.Imm 0);
        Insn.Mov (1, Insn.Imm 0) (* address cursor *);
        Insn.Mov (2, Insn.Imm 40) (* iterations *);
        Insn.Label 0;
        Insn.Ldr (3, Insn.mk_addr 1);
        alu Insn.Add 0 0 (Insn.Reg 3);
        Insn.Str (Insn.mk_addr ~offset:2 1, 0);
        alu Insn.Add 1 1 (Insn.Imm 4);
        alu ~set_flags:true Insn.Sub 2 2 (Insn.Imm 1);
        Insn.Bcond (Insn.Ne, 0);
        Insn.Ret ]
  in
  (* The check fires on the fourth iteration, mid-block, with a store,
     an ALU op and the return still ahead in the block. *)
  let mid_block_deopt =
    plain
      [ Insn.Mov (0, Insn.Imm 0);
        Insn.Mov (1, Insn.Imm 0);
        Insn.Mov (2, Insn.Imm 6);
        Insn.Label 0;
        Insn.Ldr (3, Insn.mk_addr 1);
        alu Insn.Add 0 0 (Insn.Reg 3) ]
    @ [ check Insn.Role_condition (Insn.Cmp (2, Insn.Imm 3));
        check Insn.Role_branch (Insn.Deopt_if (Insn.Eq, 0)) ]
    @ plain
        [ Insn.Str (Insn.mk_addr ~offset:2 1, 0);
          alu Insn.Add 1 1 (Insn.Imm 4);
          alu ~set_flags:true Insn.Sub 2 2 (Insn.Imm 1);
          Insn.Bcond (Insn.Ne, 0);
          Insn.Ret ]
  in
  (* The load faults on an unaligned address after it has issued; the
     untag shift, an ALU op and the return are never executed. *)
  let mid_block_fault =
    plain
      [ Insn.Mov (0, Insn.Imm 0);
        Insn.Mov (1, Insn.Imm 3);
        alu Insn.Add 2 0 (Insn.Imm 5);
        Insn.Ldr (3, Insn.mk_addr 1);
        alu Insn.Asr 3 3 (Insn.Imm 1);
        alu Insn.Add 0 0 (Insn.Reg 3);
        Insn.Ret ]
  in
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Out_of_bounds; bc_pc = 0;
         frame = [||]; accumulator = Code.Fv_dead } |]
  in
  let assemble insns =
    Code.assemble ~code_id:0 ~name:"test" ~arch:Arch.Arm64 ~deopts
      ~gp_slots:4 ~fp_slots:4 ~base_addr:0x100 insns
  in
  let measure engine insns =
    with_engine engine (fun () ->
        let memory = Array.init 256 (fun i -> (i * 7) land 0xFF) in
        let cpu = Cpu.create Cpu.fast_arm64 in
        let outcome =
          match
            Exec.run cpu ~host:(null_host memory) ~code:(assemble insns)
              ~args:[||]
          with
          | o -> Ok o
          | exception Exec.Machine_fault msg -> Error msg
        in
        ( outcome,
          Cpu.cycles cpu,
          Digest.string (Marshal.to_string cpu.Cpu.counters []),
          Digest.string (Marshal.to_string memory []) ))
  in
  List.iter
    (fun (name, insns, expect) ->
      let o1, c1, k1, m1 = measure Exec.Direct insns in
      let o2, c2, k2, m2 = measure Exec.Decoded insns in
      Alcotest.(check bool) (name ^ ": expected exit") true (expect o1);
      Alcotest.(check bool) (name ^ ": same outcome") true (o1 = o2);
      Alcotest.(check (float 0.0)) (name ^ ": same cycle count") c1 c2;
      Alcotest.(check string) (name ^ ": same counters") (Digest.to_hex k1)
        (Digest.to_hex k2);
      Alcotest.(check string) (name ^ ": same memory") (Digest.to_hex m1)
        (Digest.to_hex m2))
    [ ("loop", loop, function Ok (Exec.Done _) -> true | _ -> false);
      ( "mid-block deopt",
        mid_block_deopt,
        function Ok (Exec.Deopt _) -> true | _ -> false );
      ( "mid-block fault",
        mid_block_fault,
        function Error _ -> true | Ok _ -> false ) ]

let extra_suite =
  [ ( "jschkmap",
      [ Alcotest.test_case "fast/fail" `Quick test_jschkmap_fast_and_fail ] );
    ( "engines",
      [ Alcotest.test_case "float second-word bounds" `Quick
          test_float_mem_second_word_bounds;
        Alcotest.test_case "direct/decoded bit-identical" `Quick
          test_engines_bit_identical ] ) ]

let suite = base_suite @ extra_suite
