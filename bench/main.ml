(* The full reproduction harness.

   Without arguments it regenerates every table and figure of the
   paper's evaluation (fig1..fig14 plus the paper-vs-measured summary)
   through the experiment registry.  With [--exec] it runs only the
   execution-engine micro-benchmarks below and writes BENCH_exec.json.

   The VSPEC_* environment knobs are listed in README.md; a bad value
   exits 2 before any work. *)

(* ------------------------------------------------------------------ *)
(* Execution-engine micro-benchmarks (`--exec`, `make bench-exec`)     *)
(*                                                                     *)
(* Five synthetic code objects stress the hot shapes of JIT code —     *)
(* pure ALU dependency chains, load/store traffic, deopt-check         *)
(* sequences, check+branch runs and load+untag runs — and run them     *)
(* through both executors, reporting                                   *)
(* simulated-instructions-per-second, the decoded/direct speedup, and  *)
(* the decoded engine's host allocation per simulated instruction.     *)
(* Results go to BENCH_exec.json; bench/guard.ml compares a fresh run  *)
(* against the committed file.                                         *)
(* ------------------------------------------------------------------ *)

let exec_iters = 2000

let exec_codes () =
  let mk ?(deopts = [||]) insns =
    Code.assemble ~code_id:0 ~name:"xbench" ~arch:Arch.Arm64 ~deopts
      ~gp_slots:4 ~fp_slots:4 ~base_addr:0x100 insns
  in
  let i k = Insn.make k in
  let add ~dst ~src rhs =
    i (Insn.Alu { op = Insn.Add; dst; src; rhs; set_flags = false })
  in
  let loop_tail =
    [ add ~dst:0 ~src:0 (Insn.Imm 1);
      i (Insn.Cmp (0, Insn.Imm exec_iters));
      i (Insn.Bcond (Insn.Lt, 0));
      i (Insn.Mov (0, Insn.Reg 2));
      i Insn.Ret ]
  in
  let alu =
    (* 12 ALU ops per iteration: a dependent accumulator chain
       interleaved with independent work. *)
    mk
      ([ i (Insn.Mov (0, Insn.Imm 0));
         i (Insn.Mov (2, Insn.Imm 0));
         i (Insn.Mov (3, Insn.Imm 1));
         i (Insn.Label 0) ]
      @ List.concat
          (List.init 4 (fun _ ->
               [ add ~dst:2 ~src:2 (Insn.Reg 3);
                 i (Insn.Alu { op = Insn.Eor; dst = 4; src = 2;
                               rhs = Insn.Imm 21; set_flags = false });
                 add ~dst:5 ~src:4 (Insn.Reg 3) ]))
      @ loop_tail)
  in
  let loads =
    (* Two loads + a store + address arithmetic per iteration over a
       small working set (all L1 hits after warmup). *)
    mk
      ([ i (Insn.Mov (0, Insn.Imm 0));
         i (Insn.Mov (1, Insn.Imm 16)) (* word 8 *);
         i (Insn.Mov (2, Insn.Imm 0));
         i (Insn.Label 0);
         i (Insn.Ldr (3, Insn.mk_addr 1));
         i (Insn.Ldr (4, Insn.mk_addr ~offset:2 1));
         add ~dst:2 ~src:3 (Insn.Reg 4);
         i (Insn.Str (Insn.mk_addr ~offset:4 1, 2));
         i (Insn.Ldr (5, Insn.mk_addr ~offset:6 1)) ]
      @ loop_tail)
  in
  let checks =
    (* Four never-taken deopt checks per iteration, carrying Check
       provenance so the per-group counter path is exercised. *)
    let deopts =
      [| { Code.dp_id = 0; reason = Insn.Not_a_smi; bc_pc = 0; frame = [||];
           accumulator = Code.Fv_dead } |]
    in
    let cprov role =
      Insn.Check { group = Insn.G_not_smi; role }
    in
    mk ~deopts
      ([ i (Insn.Mov (0, Insn.Imm 0));
         i (Insn.Mov (2, Insn.Imm 2)) (* even: Tst.Ne never fires *);
         i (Insn.Mov (3, Insn.Imm 1));
         i (Insn.Label 0) ]
      @ List.concat
          (List.init 4 (fun _ ->
               [ Insn.make ~prov:(cprov Insn.Role_condition)
                   (Insn.Tst (2, Insn.Imm 1));
                 Insn.make ~prov:(cprov Insn.Role_branch)
                   (Insn.Deopt_if (Insn.Ne, 0));
                 add ~dst:2 ~src:2 (Insn.Imm 2) ]))
      @ loop_tail)
  in
  let checkbr =
    (* Check+branch-heavy: four tst/deopt_if pairs and the loop's
       cmp/b.cond back to back, all on one i-cache line. *)
    let deopts =
      [| { Code.dp_id = 0; reason = Insn.Not_a_smi; bc_pc = 0; frame = [||];
           accumulator = Code.Fv_dead } |]
    in
    let cprov role = Insn.Check { group = Insn.G_not_smi; role } in
    mk ~deopts
      ([ i (Insn.Mov (0, Insn.Imm 0));
         i (Insn.Mov (2, Insn.Imm 2)) (* even: Tst.Ne never fires *);
         i (Insn.Label 0) ]
      @ List.concat
          (List.init 4 (fun _ ->
               [ Insn.make ~prov:(cprov Insn.Role_condition)
                   (Insn.Tst (2, Insn.Imm 1));
                 Insn.make ~prov:(cprov Insn.Role_branch)
                   (Insn.Deopt_if (Insn.Ne, 0)) ]))
      @ loop_tail)
  in
  let smiload =
    (* Load+untag-heavy: four ldr/asr pairs per iteration — the
       software shape the ARM64 [jsldrsmi] extension fuses in
       hardware. *)
    mk
      ([ i (Insn.Mov (0, Insn.Imm 0));
         i (Insn.Mov (1, Insn.Imm 16)) (* word 8 *);
         i (Insn.Mov (2, Insn.Imm 0));
         i (Insn.Label 0) ]
      @ List.concat
          (List.init 4 (fun k ->
               [ i (Insn.Ldr (3 + k, Insn.mk_addr ~offset:(2 * k) 1));
                 i (Insn.Alu { op = Insn.Asr; dst = 3 + k; src = 3 + k;
                               rhs = Insn.Imm 1; set_flags = false }) ]))
      @ loop_tail)
  in
  [ ("alu", alu); ("loads", loads); ("checks", checks);
    ("checkbr", checkbr); ("smiload", smiload) ]

let exec_reps = 60

type exec_meas = {
  m_rate : float;  (* simulated instructions / host second *)
  m_words : float;  (* host minor-heap words / simulated instruction *)
  m_blocks : int;  (* block-granular counter charges taken *)
}

let measure_exec ?(decoded = false) run code =
  let cpu = Cpu.create Cpu.fast_arm64 in
  let host =
    { Exec.memory = Array.make 64 0;
      call_builtin = (fun _ _ -> 0);
      call_js = (fun _ _ -> 0) }
  in
  (* Warm the decode cache explicitly, then one untimed run warms the
     memory hierarchy and predictor — the timed region measures steady
     dispatch, not one-time decode cost. *)
  if decoded then Decode.warm code;
  ignore (run cpu ~host ~code ~args:[||]);
  let insns0 = cpu.Cpu.counters.Perf.jit_instructions in
  let blocks0 = cpu.Cpu.fstats.Perf.batched_blocks in
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to exec_reps do
    ignore (run cpu ~host ~code ~args:[||])
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let insns = float_of_int (cpu.Cpu.counters.Perf.jit_instructions - insns0) in
  {
    m_rate = insns /. (if dt > 0.0 then dt else 1e-9);
    m_words = words /. insns;
    m_blocks = cpu.Cpu.fstats.Perf.batched_blocks - blocks0;
  }

let exec_report_path =
  Support.Knob.path_or_off "VSPEC_EXEC_BENCH_OUT"
    ~default:(Some "BENCH_exec.json")

(* Committed ceiling on the tracing-off overhead, checked by
   bench/guard.ml.  The zero-cost-when-disabled contract says every
   instrumentation site is a single load-and-branch when tracing is
   off; the probe below times a hot loop with a guarded emit per
   iteration against the same loop without one and reports the extra
   cost as a percentage. *)
let trace_overhead_limit_pct = 1.0

let measure_trace_overhead () =
  Trace.disable ();
  let iters = 1_000_000 in
  (* ~50ns of integer work per iteration, comparable to one decoded
     dispatch step, so the guarded emit is measured against a
     realistic hot-loop body rather than an empty loop. *)
  let work_step acc i =
    let a = (acc * 1103515245 + i) land 0x3FFFFFFF in
    let a = a lxor (a lsr 7) in
    let a = (a * 29 + 17) land 0x3FFFFFFF in
    a lxor (a lsl 3) land 0x3FFFFFFF
  in
  let plain () =
    let acc = ref 1 in
    for i = 1 to iters do
      acc := work_step !acc i
    done;
    !acc
  in
  let traced () =
    let acc = ref 1 in
    for i = 1 to iters do
      acc := work_step !acc i;
      (* The standard call-site idiom: guard keeps the argument
         construction off the disabled path. *)
      if !Trace.on then
        Trace.instant ~cat:"bench" ~arg:(string_of_int !acc) "tick"
    done;
    !acc
  in
  let time f =
    (* CPU time, not wall time: immune to scheduler preemption on a
       shared host, and the loops allocate nothing. *)
    let t0 = Sys.time () in
    let r = f () in
    (Sys.time () -. t0, r)
  in
  (* Keep results live so the loops cannot be optimised away. *)
  let sink = ref 0 in
  ignore (plain ());
  ignore (traced ());
  (* Paired design: each pair times both loops back to back (order
     alternating to cancel drift) and contributes one traced/plain
     ratio; adjacent legs share ambient host load, and the median
     discards pairs disturbed by a contention spike. *)
  let measure () =
    let ratios =
      Array.init 15 (fun k ->
          if k land 1 = 0 then begin
            let t_off, r1 = time plain in
            let t_on, r2 = time traced in
            sink := !sink lxor r1 lxor r2;
            t_on /. t_off
          end
          else begin
            let t_on, r2 = time traced in
            let t_off, r1 = time plain in
            sink := !sink lxor r1 lxor r2;
            t_on /. t_off
          end)
    in
    100.0 *. (Support.Stats.median ratios -. 1.0)
  in
  (* A sustained noise window can bias a whole measurement, so retry
     up to twice and keep the minimum: a transient spike cannot
     survive three attempts, while a real regression shows in all of
     them.  Stop early once comfortably under the ceiling. *)
  let rec attempt best remaining =
    let best = Float.min best (measure ()) in
    if remaining = 0 || best <= 0.5 *. trace_overhead_limit_pct then best
    else attempt best (remaining - 1)
  in
  let overhead = attempt infinity 2 in
  if !sink = max_int then print_char ' ';
  Float.max 0.0 overhead

let run_exec_bench () =
  Support.Table.section
    "Execution-engine micro-benchmarks (simulated insns/sec)";
  let rows =
    List.map
      (fun (name, code) ->
        let direct = measure_exec Exec.run_direct code in
        let decoded = measure_exec ~decoded:true Decode.run code in
        (name, direct, decoded, decoded.m_rate /. direct.m_rate))
      (exec_codes ())
  in
  let t =
    Support.Table.create ~title:"pre-decoded engine vs direct interpreter"
      ~columns:
        [ "bench"; "direct Mi/s"; "decoded Mi/s"; "speedup"; "words/insn" ]
  in
  List.iter
    (fun (name, direct, decoded, speedup) ->
      Support.Table.add_row t
        [ name;
          Printf.sprintf "%.1f" (direct.m_rate /. 1e6);
          Printf.sprintf "%.1f" (decoded.m_rate /. 1e6);
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.4f" decoded.m_words ])
    rows;
  Support.Table.print t;
  let trace_overhead = measure_trace_overhead () in
  Printf.printf "tracing-off overhead (guarded emit vs none): %.2f%% (limit %.1f%%)\n"
    trace_overhead trace_overhead_limit_pct;
  match exec_report_path () with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "{\n  \"reps\": %d,\n  \"iters\": %d,\n"
         exec_reps exec_iters);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"trace_overhead_pct\": %.2f,\n\
         \  \"trace_overhead_limit_pct\": %.1f,\n\
         \  \"benches\": [\n"
         trace_overhead trace_overhead_limit_pct);
    List.iteri
      (fun idx (name, direct, decoded, speedup) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"bench\": %S, \"direct_insns_per_sec\": %.0f, \
              \"decoded_insns_per_sec\": %.0f, \"speedup\": %.3f, \
              \"alloc_words_per_insn\": %.4f, \"blocks\": %d}%s\n"
             name direct.m_rate decoded.m_rate speedup decoded.m_words
             decoded.m_blocks
             (if idx = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    (try
       let oc = open_out path in
       Buffer.output_buffer oc buf;
       close_out oc;
       Printf.eprintf "[vspec] exec bench report -> %s\n%!" path
     with Sys_error m ->
       Printf.eprintf "[vspec] exec bench report not written: %s\n%!" m)

let () =
  Support.Knob.validate_or_exit "vspec";
  if Array.exists (fun a -> a = "--exec") Sys.argv then begin
    run_exec_bench ();
    exit 0
  end;
  print_endline
    "vspec reproduction harness: 'The Cost of Speculation' (IISWC 2021)";
  Printf.printf "iterations=%d repetitions=%d benchmarks=%d\n"
    (Experiments.Common.iterations ())
    (Experiments.Common.repetitions ())
    (List.length (Experiments.Common.suite ()));
  Printf.eprintf "[vspec] jobs=%d\n%!" (Support.Pool.default_jobs ());
  Experiments.Registry.run_all ()
