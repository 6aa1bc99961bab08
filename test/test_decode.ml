(* Decode-cache and block-batching coverage: cache hits and invalidation
   through fresh code objects, the exact static shape of a known snippet
   (one dispatch slot per micro-op, its accounting blocks), the dynamic
   batching counters against the direct engine, and a golden-model test
   of the branch predictor's hot path. *)

let () = Unix.putenv "VSPEC_CACHE_DIR" "off"

(* A 15-instruction snippet (one i-cache line at base 0x100) whose loop
   body mixes a check, a load + untag, ALU ops and a compare + branch:

     mov r0, #0            ; uop 0
     mov r1, #16           ; uop 1
     mov r5, #2            ; uop 2   (even: Tst.Ne never fires)
   L0:
     tst r5, #1            ; uop 3
     deopt_if ne, dp0      ; uop 4
     ldr r2, [r1]          ; uop 5
     asr r2, r2, #1        ; uop 6
     add r3, r0, #5        ; uop 7
     eor r4, r1, #9        ; uop 8
     add r0, r0, #1        ; uop 9
     cmp r0, #4            ; uop 10
     b.lt L0               ; uop 11
     mov r0, r3            ; uop 12
     ret                   ; uop 13

   The label compiles away, leaving 14 micro-ops in 14 dispatch slots.
   Leaders are uops {0, 3, 12} (entry, loop target, Bcond successor),
   so batching yields 3 accounting blocks.  The loop runs 4 iterations
   and returns r3 = 8. *)
let snippet () =
  let i k = Insn.make k in
  let alu ~op ~dst ~src rhs =
    i (Insn.Alu { op; dst; src; rhs; set_flags = false })
  in
  let cprov role = Insn.Check { group = Insn.G_not_smi; role } in
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Not_a_smi; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead } |]
  in
  Code.assemble ~code_id:0 ~name:"fusemix" ~arch:Arch.Arm64 ~deopts
    ~gp_slots:8 ~fp_slots:4 ~base_addr:0x100
    [ i (Insn.Mov (0, Insn.Imm 0));
      i (Insn.Mov (1, Insn.Imm 16));
      i (Insn.Mov (5, Insn.Imm 2));
      i (Insn.Label 0);
      Insn.make ~prov:(cprov Insn.Role_condition) (Insn.Tst (5, Insn.Imm 1));
      Insn.make ~prov:(cprov Insn.Role_branch) (Insn.Deopt_if (Insn.Ne, 0));
      i (Insn.Ldr (2, Insn.mk_addr 1));
      alu ~op:Insn.Asr ~dst:2 ~src:2 (Insn.Imm 1);
      alu ~op:Insn.Add ~dst:3 ~src:0 (Insn.Imm 5);
      alu ~op:Insn.Eor ~dst:4 ~src:1 (Insn.Imm 9);
      alu ~op:Insn.Add ~dst:0 ~src:0 (Insn.Imm 1);
      i (Insn.Cmp (0, Insn.Imm 4));
      i (Insn.Bcond (Insn.Lt, 0));
      i (Insn.Mov (0, Insn.Reg 3));
      i Insn.Ret ]

let null_host () =
  { Exec.memory = Array.make 64 0;
    call_builtin = (fun _ _ -> 0);
    call_js = (fun _ _ -> 0) }

let test_static_pairing () =
  let code = snippet () in
  let st = Decode.stats (Decode.compile code) in
  Alcotest.(check int) "micro-ops" 14 st.Decode.st_uops;
  Alcotest.(check int) "one dispatch slot per micro-op"
    (Code.real_instructions code) st.Decode.st_uops;
  Alcotest.(check int) "accounting blocks" 3 st.Decode.st_blocks

let test_fresh_code_invalidation () =
  (* A cached program is reused for its code object.  Recompilation
     always builds a fresh [Code.t], so a stale program cannot be
     served; the fresh object is decoded from scratch and reaches the
     same static shape. *)
  let c1 = snippet () in
  let p1 = Decode.get c1 in
  Alcotest.(check bool) "second get is a cache hit" true (p1 == Decode.get c1);
  let p2 = Decode.get (snippet ()) in
  Alcotest.(check bool) "fresh code object, fresh program" true (p2 != p1);
  Alcotest.(check bool) "same static shape" true
    (Decode.stats p1 = Decode.stats p2)

let test_dynamic_coverage () =
  (* Blocks charged: prologue + 4 loop bodies + epilogue = 6.  The
     batched integer counters equal the direct interpreter's
     per-instruction ones. *)
  let run engine =
    Exec.set_engine (Some engine);
    Fun.protect
      ~finally:(fun () -> Exec.set_engine None)
      (fun () ->
        let cpu = Cpu.create Cpu.fast_arm64 in
        (match Exec.run cpu ~host:(null_host ()) ~code:(snippet ()) ~args:[||]
         with
        | Exec.Done v -> Alcotest.(check int) "semantics intact" 8 v
        | _ -> Alcotest.fail "expected Done");
        cpu)
  in
  let direct = run Exec.Direct and cpu = run Exec.Decoded in
  Alcotest.(check int) "batched block charges" 6
    cpu.Cpu.fstats.Perf.batched_blocks;
  Alcotest.(check int) "direct engine batches nothing" 0
    direct.Cpu.fstats.Perf.batched_blocks;
  Alcotest.(check string) "counters equal direct's"
    (Digest.to_hex (Digest.string (Marshal.to_string direct.Cpu.counters [])))
    (Digest.to_hex (Digest.string (Marshal.to_string cpu.Cpu.counters [])))

(* ---------------- predictor hot path ---------------- *)

let test_predictor_golden () =
  (* Pin the optimized int-only gshare path against an independently
     written reference model over a deterministic pseudo-random
     (pc, taken) stream. *)
  let bits = 6 in
  let t = Predictor.create ~bits () in
  let size = 1 lsl bits in
  let mask = size - 1 in
  let tab = Array.make size 2 in
  let ghr = ref 0 in
  let reference ~pc ~taken =
    let idx = (pc lxor !ghr) land mask in
    let c = tab.(idx) in
    let hit = c >= 2 = taken in
    tab.(idx) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
    ghr := ((!ghr lsl 1) lor (if taken then 1 else 0)) land mask;
    hit
  in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for step = 1 to 500 do
    let pc = next () land 1023 in
    let taken = next () land 3 <> 0 in
    Alcotest.(check bool)
      (Printf.sprintf "step %d (pc=%d taken=%b)" step pc taken)
      (reference ~pc ~taken)
      (Predictor.predict_and_update t ~pc ~taken)
  done

let test_predictor_converges () =
  (* Counters initialize weakly-taken, so an always-taken loop branch
     predicts correctly from the first execution — the property the
     paper leans on for rarely-taken check branches being near-free. *)
  let t = Predictor.create ~bits:10 () in
  let hits = ref 0 in
  for _ = 1 to 64 do
    if Predictor.predict_and_update t ~pc:0x40 ~taken:true then incr hits
  done;
  Alcotest.(check int) "always-taken branch never mispredicts" 64 !hits

let suite =
  [
    ( "decode",
      [
        Alcotest.test_case "static pairing on a known snippet" `Quick
          test_static_pairing;
        Alcotest.test_case "fresh code object invalidates" `Quick
          test_fresh_code_invalidation;
        Alcotest.test_case "dynamic fusion/batching counters" `Quick
          test_dynamic_coverage;
        Alcotest.test_case "predictor matches golden model" `Quick
          test_predictor_golden;
        Alcotest.test_case "predictor converges on taken loop" `Quick
          test_predictor_converges;
      ] );
  ]
