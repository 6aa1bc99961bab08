let smi_benches () =
  List.filter
    (fun (b : Workloads.Suite.benchmark) ->
      List.mem b.Workloads.Suite.id Workloads.Suite.smi_kernels)
    (Common.suite ())

let gem5_iters () = max 30 (Common.iterations () / 3)

let fig11 () =
  Support.Table.section
    "Fig 11: SMI kernel code, default ARM64 vs jsldrsmi extension";
  match Workloads.Suite.by_id "DP" with
  | None -> print_endline "benchmark missing"
  | Some b ->
    Common.degraded "fig11" @@ fun () ->
    let listing arch =
      let config = Common.config_for ~arch ~seed:1 Common.V_normal in
      let eng = Engine.create config b.Workloads.Suite.source in
      Harness.drive eng ~calls:30;
      Engine.compile_now eng "dot"
    in
    (match (listing Arch.Arm64, listing Arch.Arm64_smi_ext) with
    | Ok c1, Ok c2 ->
      let stats (c : Code.t) =
        let branches = ref 0 and smi_loads = ref 0 in
        Array.iter
          (fun i ->
            match i.Insn.kind with
            | Insn.Bcond _ | Insn.Deopt_if _ | Insn.B _ -> incr branches
            | Insn.Js_ldr_smi _ -> incr smi_loads
            | _ -> ())
          c.Code.insns;
        (Code.real_instructions c, Code.static_check_instructions c, !branches, !smi_loads)
      in
      let i1, k1, br1, _ = stats c1 in
      let i2, k2, br2, f2 = stats c2 in
      Printf.printf "--- default ARM64: %d instructions, %d check instructions, %d branches\n"
        i1 k1 br1;
      print_string (Code.listing c1);
      Printf.printf
        "\n--- ARM64 + jsldrsmi: %d instructions, %d check instructions, %d branches, %d fused SMI loads\n"
        i2 k2 br2 f2;
      print_string (Code.listing c2)
    | Error m, _ | _, Error m -> print_endline ("compile failed: " ^ m))

let fig12 () =
  Support.Table.section "Fig 12: jsldrsmi load-unit datapath semantics";
  print_endline
    {|The fused load's data path (paper Fig 12), as implemented by the
machine executor (Exec.run, Js_ldr_smi case):

    word <- memory[base + index*scale + offset]
    parallel:
      untagged <- word >> 1          (untagging shift, in the load unit)
      fail     <- word & 1           (Not-a-SMI check)
    if fail:
      REG_PC <- pc of this load      (identifies the failed check)
      REG_RE <- reason code (1 = Not-a-SMI)
      commit triggers the bailout through the handler in REG_BA
    else:
      rd <- untagged

No explicit test or branch instruction is emitted; the prologue sets
REG_BA once per function (mov+msr, Fig 11).  The check costs no extra
latency: the shift and tag test happen alongside the cache access.|};
  (* Demonstrate both outcomes through the engine: an SMI-speculated
     load that encounters a heap number deoptimizes through REG_RE. *)
  let src =
    {|
function pick(a, i) { return a[i] + 1; }
var xs = [1, 2, 3, 4];
function bench() {
  var s = 0;
  for (var i = 0; i < 4; i++) s = s + pick(xs, i);
  return s;
}
|}
  in
  Common.degraded "fig12" @@ fun () ->
  let config = Common.config_for ~arch:Arch.Arm64 ~seed:1 Common.V_smi_ext in
  let eng = Engine.create config src in
  Harness.drive eng ~calls:20;
  let h = (Engine.runtime eng).Runtime.heap in
  let before = Engine.call_global eng "bench" [||] in
  (* Poison the array with a heap number: the fused load's check fails
     and execution bails out through REG_BA. *)
  let xs = Heap.cell_value h (Heap.global_cell h "xs") in
  Heap.array_set h xs 2 (Heap.alloc_heap_number h 3.0);
  let after = Engine.call_global eng "bench" [||] in
  Printf.printf
    "\nfast path result: %s; after poisoning xs[2] with a heap number: %s\n"
    (Conv.to_js_string h before) (Conv.to_js_string h after);
  List.iter
    (fun (r, n) -> Printf.printf "deopt %s: %d\n" (Insn.reason_name r) n)
    (Engine.deopt_counts eng)

(* Per (bench, cpu): arrays of per-rep total cycles for both ISAs and
   retired-instruction counts. *)
let isa_runs b cpu =
  let reps = Common.repetitions () in
  let iters = gem5_iters () in
  let base = Array.make reps 0.0 in
  let ext = Array.make reps 0.0 in
  let base_instr = ref 0 and ext_instr = ref 0 in
  for rep = 0 to reps - 1 do
    let seed = 100 + rep in
    let r1 =
      Common.run_cached ~cpu ~iterations:iters ~arch:Arch.Arm64 ~seed
        Common.V_normal b
    in
    let r2 =
      Common.run_cached ~cpu ~iterations:iters ~arch:Arch.Arm64 ~seed
        Common.V_smi_ext b
    in
    base.(rep) <- r1.Harness.total_cycles;
    ext.(rep) <- r2.Harness.total_cycles;
    base_instr := !base_instr + r1.Harness.counters.Perf.instructions;
    ext_instr := !ext_instr + r2.Harness.counters.Perf.instructions
  done;
  (base, ext, !base_instr, !ext_instr)

(* Every (bench, cpu) row of fig13/fig14 in one fan-out, regrouped
   per benchmark (cpus in [Cpu.gem5_cpus] order). *)
let all_isa_runs () = Common.rows_by (smi_benches ()) Cpu.gem5_cpus isa_runs

let fig13 () =
  let rows = all_isa_runs () in
  Support.Table.section
    "Fig 13: extended-ISA speedups on SMI kernels, per CPU model";
  let cpus = Cpu.gem5_cpus in
  let t =
    Support.Table.create
      ~title:"speedup of jsldrsmi over default ARM64 (total cycles)"
      ~columns:
        ("benchmark"
        :: List.map (fun (c : Cpu.config) -> c.Cpu.cfg_name) cpus
        @ [ "instr delta" ])
  in
  let all_speedups = ref [] in
  let instr_deltas = ref [] in
  List.iter
    (fun ((b : Workloads.Suite.benchmark), runs) ->
      (* A failed cpu column drops the whole row, so the accumulators
         never see a half-filled one. *)
      match
        List.find_map (function _, Error e -> Some e | _, Ok _ -> None) runs
      with
      | Some err ->
        Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
          ~reason:(Support.Fault.class_name err)
      | None ->
        let runs = List.map (fun (_, run) -> Result.get_ok run) runs in
        let row =
          List.map
            (fun (base, ext, _, _) ->
              let sp = Support.Stats.mean base /. Support.Stats.mean ext in
              all_speedups := sp :: !all_speedups;
              Support.Table.fmt_speedup sp)
            runs
        in
        let delta =
          match List.rev runs with
          | (_, _, bi, ei) :: _ ->
            100.0 *. (float_of_int ei /. float_of_int bi -. 1.0)
          | [] -> 0.0
        in
        instr_deltas := delta :: !instr_deltas;
        Support.Table.add_row t
          ((b.Workloads.Suite.id :: row) @ [ Printf.sprintf "%+.1f%%" delta ]))
    rows;
  Support.Table.print t;
  let sps = Array.of_list !all_speedups in
  if Array.length sps > 0 then begin
    let _, mx = Support.Stats.min_max sps in
    Printf.printf
      "mean speedup %.1f%%, max %.1f%% (paper: mean ~3%%, up to ~10%%)\n"
      (100.0 *. (Support.Stats.geomean sps -. 1.0))
      (100.0 *. (mx -. 1.0));
    let deltas = Array.of_list !instr_deltas in
    Printf.printf "mean retired-instruction change %.1f%% (paper: ~-4%%)\n"
      (Support.Stats.mean deltas)
  end

let fig14 () =
  let rows = all_isa_runs () in
  Support.Table.section
    "Fig 14: execution-time distributions, default vs extended ISA";
  let t =
    Support.Table.create
      ~title:"total-cycle quartiles across repetitions (q1 / median / q3, millions)"
      ~columns:[ "benchmark"; "cpu"; "default ISA"; "smi-extended ISA"; "median delta" ]
  in
  List.iter
    (fun ((b : Workloads.Suite.benchmark), runs) ->
      List.iter
        (fun ((cpu : Cpu.config), run) ->
          match run with
          | Error err ->
            Support.Table.add_missing_row t
              ~label:(b.Workloads.Suite.id ^ " " ^ cpu.Cpu.cfg_name)
              ~reason:(Support.Fault.class_name err)
          | Ok (base, ext, _, _) ->
            let fmt xs =
              let q1, m, q3 = Support.Stats.quartiles xs in
              Printf.sprintf "%.3f / %.3f / %.3f" (q1 /. 1e6) (m /. 1e6)
                (q3 /. 1e6)
            in
            let _, m1, _ = Support.Stats.quartiles base in
            let _, m2, _ = Support.Stats.quartiles ext in
            Support.Table.add_row t
              [ b.Workloads.Suite.id; cpu.Cpu.cfg_name; fmt base; fmt ext;
                Printf.sprintf "%+.1f%%" (100.0 *. (m2 /. m1 -. 1.0)) ])
        runs)
    rows;
  Support.Table.print t
