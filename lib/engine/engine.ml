type check_config = {
  disabled_groups : Insn.check_group list;
  remove_branches : bool;
}

let checks_on = { disabled_groups = []; remove_branches = false }

type config = {
  arch : Arch.t;
  cpu : Cpu.config;
  enable_baseline : bool;
      (* SparkPlug-style tier between the interpreter and the optimizer *)
  tier_up_threshold : int;
  max_deopts_before_forbid : int;
  checks : check_config;
  trust_elements_kind : bool;
  turboprop : bool;
  fuse_map_checks : bool;
      (* future-work prototype: jschkmap fused map checks (needs the
         extended ISA's bailout registers) *)
  enable_optimizer : bool;
  sampling_period : float option;
  seed : int;
  gc_threshold_words : int;
  heap_size : int;
}

let default_config ?(arch = Arch.Arm64) () =
  {
    arch;
    cpu = Cpu.fast_for arch;
    enable_baseline = false;
    tier_up_threshold = 4;
    max_deopts_before_forbid = 5;
    checks = checks_on;
    trust_elements_kind = false;
    turboprop = false;
    fuse_map_checks = false;
    enable_optimizer = true;
    sampling_period = Some 211.0;
    seed = 42;
    gc_threshold_words = 4 * 1024 * 1024;
    heap_size = 8 * 1024 * 1024;
  }

type t = {
  rt : Runtime.t;
  cpu : Cpu.t;
  sampler : Perf.sampler option;
  cfg : config;
  codes_by_fid : (int, Code.t) Hashtbl.t;
  codes_by_id : (int, Code.t) Hashtbl.t;  (* never pruned: sampler data *)
  graphs_by_fid : (int, Son.t) Hashtbl.t;
  mutable machine_depth : int;
  mutable next_base_addr : int;
  mutable next_code_id : int;
  rng : Support.Rng.t;
  mutable compile_count : int;
  deopts : (Insn.deopt_reason, int ref) Hashtbl.t;
  mutable bailouts : (string * string) list;
  mutable host : Exec.host option;
  tiers : (int, [ `Baseline | `Optimized ]) Hashtbl.t;
  baseline_failed : (int, unit) Hashtbl.t;
}

let runtime t = t.rt
let cpu t = t.cpu
let sampler t = t.sampler
let config t = t.cfg
let output t = Buffer.contents t.rt.Runtime.output
let cycles t = Cpu.cycles t.cpu
let compile_count t = t.compile_count

let code_of_fid t fid = Hashtbl.find_opt t.codes_by_fid fid
let code_of_id t cid = Hashtbl.find_opt t.codes_by_id cid
let graph_of_fid t fid = Hashtbl.find_opt t.graphs_by_fid fid
let all_codes t = Hashtbl.fold (fun _ c acc -> c :: acc) t.codes_by_id []

let tier_of_fid t fid = Hashtbl.find_opt t.tiers fid

let deopt_counts t =
  Hashtbl.fold (fun r c acc -> (r, !c) :: acc) t.deopts []

let note_deopt t reason =
  match Hashtbl.find_opt t.deopts reason with
  | Some c -> incr c
  | None -> Hashtbl.replace t.deopts reason (ref 1)

(* ------------------------------------------------------------------ *)
(* GC                                                                  *)
(* ------------------------------------------------------------------ *)

let run_gc t =
  let h = t.rt.Runtime.heap in
  Heap.gc h;
  (* Charge a mark-sweep cost proportional to the surviving and freed
     volumes; this is one of the paper's noise sources. *)
  let live = Heap.last_gc_live_words h and freed = Heap.last_gc_freed_words h in
  let cost = 400.0 +. (float_of_int live /. 3.0) +. (float_of_int freed /. 10.0) in
  let trace_t0 = if !Trace.on then Cpu.cycles t.cpu else 0.0 in
  Cpu.charge t.cpu ~cycles:cost
    ~instructions:(int_of_float (cost /. 1.2))
    ~code_id:Perf.gc_code_id;
  if !Trace.on then
    Trace.complete_at ~cat:"jsvm"
      ~arg:(Printf.sprintf "live=%d freed=%d" live freed)
      ~ts:trace_t0
      ~dur:(Cpu.cycles t.cpu -. trace_t0)
      "gc"

let force_gc t = run_gc t

let maybe_gc t =
  let h = t.rt.Runtime.heap in
  let jitter = Support.Rng.int t.rng (1 + (t.cfg.gc_threshold_words / 8)) in
  if Heap.words_in_use h > t.cfg.gc_threshold_words - jitter then run_gc t

(* Per-iteration safepoint: watermark GC plus ambient system noise
   (timer interrupts, kernel work).  The paper deliberately keeps such
   noise rather than pinning it away (Section IV-A); it is what the
   Bonferroni-corrected significance tests push against. *)
let iteration_safepoint t =
  maybe_gc t;
  if Support.Rng.int t.rng 100 < 6 then begin
    let cost = 150.0 +. Support.Rng.float t.rng 2500.0 in
    Cpu.charge t.cpu ~cycles:cost
      ~instructions:(int_of_float (cost *. 0.8))
      ~code_id:Perf.runtime_code_id
  end

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let codegen_consts t =
  let h = t.rt.Runtime.heap in
  let hn = Heap.alloc_heap_number h 0.0 in
  let limit_cell = Heap.global_cell h "__stack_limit" in
  Heap.set_cell_value h limit_cell (Value.smi 1);
  {
    Codegen.true_word = Heap.true_value h;
    false_word = Heap.false_value h;
    undefined_word = Heap.undefined h;
    heap_number_map_ptr = Heap.load h hn 0;
    stack_limit_cell = limit_cell;
    interrupt_builtin = Builtins.id_rt_to_boolean (* never executed *);
  }

let compile t (f : Runtime.func_rt) =
  let trace_t0 = if !Trace.on then Cpu.cycles t.cpu else 0.0 in
  let builder_cfg =
    {
      Graph_builder.arch = t.cfg.arch;
      trust_elements_kind = t.cfg.trust_elements_kind;
      turboprop = t.cfg.turboprop;
    }
  in
  match Graph_builder.build builder_cfg t.rt f with
  | exception Graph_builder.Bailout msg ->
    f.Runtime.forbid_opt <- true;
    t.bailouts <- (f.Runtime.info.Bytecode.name, msg) :: t.bailouts;
    if !Trace.on then
      Trace.instant_at ~cat:"jsvm"
        ~arg:(f.Runtime.info.Bytecode.name ^ ": " ^ msg)
        ~ts:(Cpu.cycles t.cpu) "tier-up:bailout"
  | graph ->
    if t.cfg.checks.disabled_groups <> [] then
      ignore
        (Reducer.short_circuit_checks graph ~groups:t.cfg.checks.disabled_groups);
    if Arch.has_smi_load t.cfg.arch then begin
      ignore (Reducer.fuse_smi_loads graph);
      if t.cfg.fuse_map_checks then ignore (Reducer.fuse_map_checks graph)
    end;
    ignore (Reducer.run_dce graph);
    let code_id = t.next_code_id in
    t.next_code_id <- code_id + 1;
    let base_addr = t.next_base_addr in
    let code =
      Codegen.generate ~code_id ~base_addr ~arch:t.cfg.arch
        ~remove_deopt_branches:t.cfg.checks.remove_branches
        ~consts:(codegen_consts t) graph
    in
    t.next_base_addr <- base_addr + Array.length code.Code.insns + 64;
    (* Pre-decode while we are already paying a compile pause, so the
       first optimized execution runs straight from the micro-op array. *)
    Exec.warm code;
    Hashtbl.replace t.codes_by_fid f.Runtime.info.Bytecode.fid code;
    Hashtbl.replace t.codes_by_id code_id code;
    Hashtbl.replace t.graphs_by_fid f.Runtime.info.Bytecode.fid graph;
    Hashtbl.replace t.tiers f.Runtime.info.Bytecode.fid `Optimized;
    f.Runtime.code_ref <- code_id;
    t.compile_count <- t.compile_count + 1;
    (* Compilation happens on the same core: charge it (a paper noise
       source: "non-determinism in how JIT-compilation is triggered"). *)
    let cost = 800.0 +. (25.0 *. float_of_int (Son.node_count graph)) in
    Cpu.charge t.cpu ~cycles:cost
      ~instructions:(int_of_float cost)
      ~code_id:Perf.runtime_code_id;
    if !Trace.on then
      Trace.complete_at ~cat:"jsvm" ~arg:f.Runtime.info.Bytecode.name
        ~ts:trace_t0
        ~dur:(Cpu.cycles t.cpu -. trace_t0)
        "tier-up:optimize"

let compile_baseline t (f : Runtime.func_rt) =
  let fid = f.Runtime.info.Bytecode.fid in
  let trace_t0 = if !Trace.on then Cpu.cycles t.cpu else 0.0 in
  if not (Hashtbl.mem t.baseline_failed fid) then begin
    match
      Sparkplug.compile ~code_id:t.next_code_id ~base_addr:t.next_base_addr
        ~arch:t.cfg.arch t.rt f
    with
    | exception Sparkplug.Unsupported _ -> Hashtbl.replace t.baseline_failed fid ()
    | code ->
      let code_id = t.next_code_id in
      t.next_code_id <- code_id + 1;
      t.next_base_addr <- t.next_base_addr + Array.length code.Code.insns + 64;
      Exec.warm code;
      Hashtbl.replace t.codes_by_fid fid code;
      Hashtbl.replace t.codes_by_id code_id code;
      Hashtbl.replace t.tiers fid `Baseline;
      f.Runtime.code_ref <- code_id;
      (* Baseline compilation is cheap: a single linear pass. *)
      let cost = 150.0 +. (4.0 *. float_of_int (Array.length code.Code.insns)) in
      Cpu.charge t.cpu ~cycles:cost ~instructions:(int_of_float cost)
        ~code_id:Perf.runtime_code_id;
      if !Trace.on then
        Trace.complete_at ~cat:"jsvm" ~arg:f.Runtime.info.Bytecode.name
          ~ts:trace_t0
          ~dur:(Cpu.cycles t.cpu -. trace_t0)
          "tier-up:baseline"
  end

(* ------------------------------------------------------------------ *)
(* Optimized execution and deoptimization                              *)
(* ------------------------------------------------------------------ *)

let rec execute_optimized t fid margs =
  let f = Runtime.func t.rt fid in
  let code =
    match Hashtbl.find_opt t.codes_by_fid fid with
    | Some c -> c
    | None -> invalid_arg "Engine.execute_optimized: no code"
  in
  (* Pad missing arguments with undefined (JS semantics). *)
  let want = 2 + f.Runtime.info.Bytecode.n_params in
  let args =
    if Array.length margs >= want then margs
    else begin
      let padded = Array.make want (Heap.undefined t.rt.Runtime.heap) in
      Array.blit margs 0 padded 0 (Array.length margs);
      padded
    end
  in
  t.machine_depth <- t.machine_depth + 1;
  let outcome =
    Fun.protect
      ~finally:(fun () -> t.machine_depth <- t.machine_depth - 1)
      (fun () -> Exec.run t.cpu ~host:(Option.get t.host) ~code ~args)
  in
  match outcome with
  | Exec.Done v -> v
  | Exec.Deopt { deopt_id; reason; snapshot; via_smi_ext = _ } ->
    note_deopt t reason;
    if !Trace.on then
      Trace.instant_at ~cat:"jsvm"
        ~arg:(f.Runtime.info.Bytecode.name ^ ": " ^ Insn.reason_name reason)
        ~ts:(Cpu.cycles t.cpu) "deopt";
    (* Soft deopts (compiled too soon, paper Section II-B1) are benign:
       they refresh feedback and do not count toward disabling the
       optimizer. *)
    if Insn.category_of_reason reason <> Insn.Deopt_soft then
      f.Runtime.deopt_count <- f.Runtime.deopt_count + 1;
    (* Discard the code; forbid after repeated eager-deopt storms. *)
    f.Runtime.code_ref <- -1;
    Hashtbl.remove t.codes_by_fid fid;
    if f.Runtime.deopt_count > t.cfg.max_deopts_before_forbid then
      f.Runtime.forbid_opt <- true;
    (* Charge the bailout path: frame translation + unlinking. *)
    Cpu.charge t.cpu ~cycles:600.0 ~instructions:500
      ~code_id:Perf.runtime_code_id;
    let point = code.Code.deopts.(deopt_id) in
    let h = t.rt.Runtime.heap in
    let materialize_double v = Heap.alloc_heap_number h v in
    let regs =
      Array.map (fun fv -> Exec.frame_value snapshot ~materialize_double fv)
        point.Code.frame
    in
    let acc =
      Exec.frame_value snapshot ~materialize_double point.Code.accumulator
    in
    let closure = snapshot.Exec.s_slots.(0) in
    Interpreter.resume t.rt ~fid ~closure ~regs ~acc ~pc:point.Code.bc_pc

and make_host t =
  {
    Exec.memory = Heap.memory t.rt.Runtime.heap;
    call_builtin =
      (fun b argv ->
        let this = if Array.length argv > 0 then argv.(0) else Heap.undefined t.rt.Runtime.heap in
        let args =
          if Array.length argv > 1 then Array.sub argv 1 (Array.length argv - 1)
          else [||]
        in
        Builtins.dispatch t.rt b ~this ~args);
    call_js =
      (fun fid argv ->
        let f = Runtime.func t.rt fid in
        f.Runtime.invocations <- f.Runtime.invocations + 1;
        (match t.rt.Runtime.on_invoke with
        | Some hook -> hook t.rt f
        | None -> ());
        if f.Runtime.code_ref >= 0 then execute_optimized t fid argv
        else begin
          let closure = argv.(0) and this = argv.(1) in
          let args = Array.sub argv 2 (Array.length argv - 2) in
          Interpreter.interpret_direct t.rt f ~closure ~this ~args
        end);
  }

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let create cfg source =
  let unit_ = Bcompiler.compile source in
  let rt = Runtime.create ~heap_size:cfg.heap_size ~seed:cfg.seed unit_ in
  Builtins.install_globals rt;
  Interpreter.attach rt;
  let sampler =
    Option.map
      (fun period -> Perf.create_sampler ~period ~seed:(cfg.seed + 7))
      cfg.sampling_period
  in
  let cpu = Cpu.create ?sampler cfg.cpu in
  let t =
    {
      rt;
      cpu;
      sampler;
      cfg;
      codes_by_fid = Hashtbl.create 32;
      codes_by_id = Hashtbl.create 32;
      graphs_by_fid = Hashtbl.create 32;
      machine_depth = 0;
      next_base_addr = 0x1000;
      next_code_id = 0;
      rng = Support.Rng.create (cfg.seed + 13);
      compile_count = 0;
      deopts = Hashtbl.create 16;
      bailouts = [];
      host = None;
      tiers = Hashtbl.create 32;
      baseline_failed = Hashtbl.create 8;
    }
  in
  t.host <- Some (make_host t);
  (* Point the tracing sim clock at this engine's CPU (domain-local, so
     pool workers each trace their own engine's timeline). *)
  Trace.set_sim_clock (fun () -> Cpu.cycles cpu);
  (* Interpreter and builtin cost accounting on the shared CPU. *)
  rt.Runtime.charge_interp <-
    (fun ~cycles ~instructions ->
      Cpu.charge cpu ~cycles:(float_of_int cycles)
        ~instructions:(instructions * 4)
        ~code_id:Perf.runtime_code_id);
  rt.Runtime.charge_builtin <-
    (fun ~cycles ->
      Cpu.charge cpu ~cycles:(float_of_int cycles)
        ~instructions:(max 1 (cycles * 3 / 4))
        ~code_id:Perf.builtin_code_id);
  (* Tier-up policy. *)
  if cfg.enable_optimizer || cfg.enable_baseline then begin
    (* Per-function threshold jitter: the paper notes V8's JIT triggering
       is non-deterministic and treats it as a noise source. *)
    let thresholds = Hashtbl.create 32 in
    rt.Runtime.on_invoke <-
      Some
        (fun _rt f ->
          let fid = f.Runtime.info.Bytecode.fid in
          let threshold =
            match Hashtbl.find_opt thresholds fid with
            | Some th -> th
            | None ->
              let th =
                cfg.tier_up_threshold + Support.Rng.int t.rng 3
              in
              Hashtbl.replace thresholds fid th;
              th
          in
          let tier = Hashtbl.find_opt t.tiers fid in
          if
            cfg.enable_optimizer
            && (f.Runtime.code_ref < 0 || tier = Some `Baseline)
            && (not f.Runtime.forbid_opt)
            && f.Runtime.info.Bytecode.context_slots = 0
            && f.Runtime.invocations >= threshold
          then compile t f
          else if
            cfg.enable_baseline && f.Runtime.code_ref < 0
            && (tier = None || tier = Some `Baseline)
            && f.Runtime.invocations >= 2
          then compile_baseline t f)
  end;
  rt.Runtime.call_optimized <- Some (fun fid margs -> execute_optimized t fid margs);
  (* GC at allocation failure only when no machine frame is live. *)
  Heap.set_on_full rt.Runtime.heap (fun () ->
      if t.machine_depth = 0 then begin
        run_gc t;
        true
      end
      else false);
  t

let run_main t = Interpreter.run_main t.rt

let call_global t name args =
  let h = t.rt.Runtime.heap in
  let cell = Heap.global_cell h name in
  let v = Heap.cell_value h cell in
  Interpreter.call_function_value t.rt v args

let compile_now t name =
  let h = t.rt.Runtime.heap in
  let v = Heap.cell_value h (Heap.global_cell h name) in
  if not (Heap.is_function h v) then Error (name ^ " is not a function")
  else begin
    let fid = Heap.function_id_of h v in
    if fid >= Runtime.builtin_base then Error (name ^ " is a builtin")
    else begin
      let f = Runtime.func t.rt fid in
      compile t f;
      match Hashtbl.find_opt t.codes_by_fid fid with
      | Some c -> Ok c
      | None -> (
        match t.bailouts with
        | (_, msg) :: _ -> Error msg
        | [] -> Error "compilation failed")
    end
  end
