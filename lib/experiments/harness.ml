type result = {
  bench : Workloads.Suite.benchmark;
  arch : Arch.t;
  iterations : int;
  checksum : float;
  error : string option;
  iter_cycles : float array;
  iter_deopts : int array;
  counters : Perf.counters;
  total_cycles : float;
  jit_samples : int;
  total_samples : int;
  window_check_samples : int array;
  truth_check_samples : int array;
  static_checks : int;
  static_insns : int;
  compiles : int;
  gc_runs : int;
}

(* Watchdog fuel: a per-entry (setup or single benchmark iteration)
   cycle budget, read per run so tests can flip the env var.  The
   total allowance of a run therefore scales with its iteration count.
   The default is ~3 orders of magnitude above the costliest legitimate
   iteration in the suite, so only a genuinely non-terminating code
   object trips it. *)
let max_cycles_per_call = Support.Knob.float "VSPEC_MAX_CYCLES" ~default:2e8

let drive eng ~calls =
  let cpu = Engine.cpu eng in
  let budget = max_cycles_per_call () in
  Cpu.arm_watchdog cpu ~cycles:budget;
  let _ = Engine.run_main eng in
  for _ = 1 to calls do
    Cpu.arm_watchdog cpu ~cycles:budget;
    ignore (Engine.call_global eng "bench" [||])
  done

(* Sample attribution over one code object.

   Window heuristic (paper Section III-A): every PC sample that lands on
   a deopt branch, or within [Arch.check_window] non-pseudo instructions
   before it, counts toward the branch's check group.

   Ground truth: instruction provenance recorded by the code
   generator.

   Both attributions index by *instruction* PC.  The decoded engine
   gives every instruction its own dispatch slot and sets the sampler's
   attribution PC per slot, so samples land on the same instructions as
   under the direct interpreter. *)
let check_window_map (code : Code.t) =
  let insns = code.Code.insns in
  let w = Arch.check_window code.Code.arch in
  let n = Array.length insns in
  (* Mark window membership. *)
  let window_group = Array.make n (-1) in
  for i = 0 to n - 1 do
    let mark_from group =
      window_group.(i) <- group;
      (* Walk back over up to [w] preceding non-pseudo instructions. *)
      let remaining = ref w in
      let j = ref (i - 1) in
      while !remaining > 0 && !j >= 0 do
        if not (Insn.is_pseudo insns.(!j).Insn.kind) then begin
          if window_group.(!j) < 0 then window_group.(!j) <- group;
          decr remaining
        end;
        decr j
      done
    in
    match insns.(i).Insn.kind with
    | Insn.Deopt_if (_, dp) ->
      let reason = code.Code.deopts.(dp).Code.reason in
      mark_from (Insn.group_index (Insn.group_of_reason reason))
    | Insn.Js_ldr_smi { deopt; _ } ->
      let reason = code.Code.deopts.(deopt).Code.reason in
      window_group.(i) <- Insn.group_index (Insn.group_of_reason reason)
    | _ -> ()
  done;
  window_group

let attribute_code_with ~window_map ~(code : Code.t) ~(samples : int array)
    ~window_acc ~truth_acc =
  let insns = code.Code.insns in
  let n = Array.length insns in
  let window_group = window_map in
  let jit = ref 0 in
  for i = 0 to min (n - 1) (Array.length samples - 1) do
    let s = samples.(i) in
    if s > 0 then begin
      jit := !jit + s;
      if window_group.(i) >= 0 then
        window_acc.(window_group.(i)) <- window_acc.(window_group.(i)) + s;
      match insns.(i).Insn.prov with
      | Insn.Check { group; _ } ->
        let gi = Insn.group_index group in
        truth_acc.(gi) <- truth_acc.(gi) + s
      | Insn.Main_line | Insn.Shared -> ()
    end
  done;
  !jit

let attribute_code ~code ~samples ~window_acc ~truth_acc =
  attribute_code_with ~window_map:(check_window_map code) ~code ~samples
    ~window_acc ~truth_acc

let copy_counters c =
  let fresh = Perf.create_counters () in
  Perf.add_counters fresh c;
  fresh

let run ?(iterations = 300) ~(config : Engine.config) bench =
  Trace.span_wall ~cat:"experiments"
    ~arg:(Printf.sprintf "%s/%s" bench.Workloads.Suite.id (Arch.name config.Engine.arch))
    "harness" @@ fun () ->
  let eng = Engine.create config bench.Workloads.Suite.source in
  let cpu = Engine.cpu eng in
  let counters = cpu.Cpu.counters in
  let h = (Engine.runtime eng).Runtime.heap in
  let iter_cycles = Array.make iterations 0.0 in
  let iter_deopts = Array.make iterations 0 in
  let checksum = ref Float.nan in
  let error = ref None in
  let budget = max_cycles_per_call () in
  (try
     Cpu.arm_watchdog cpu ~cycles:budget;
     let _ = Engine.run_main eng in
     let i = ref 0 in
     while !i < iterations && !error = None do
       let c0 = Engine.cycles eng in
       let d0 = counters.Perf.deopt_events in
       Cpu.arm_watchdog cpu ~cycles:budget;
       (try
          let v = Engine.call_global eng "bench" [||] in
          checksum := Heap.number_value h v
        with
       | Support.Fault.Fault _ as e ->
         (* Watchdog trips and injected faults are containment events,
            not divergences: the cell as a whole fails, typed. *)
         raise e
       | Exec.Machine_fault m -> error := Some ("machine fault: " ^ m)
       | Builtins.Js_error m -> error := Some ("js error: " ^ m)
       | e ->
         (* Configurations that deliberately alter semantics (paper
            Fig 10 removes deopt branches) can corrupt downstream values
            arbitrarily; report, do not crash the experiment. *)
         error := Some ("runtime divergence: " ^ Printexc.to_string e));
       iter_cycles.(!i) <- Engine.cycles eng -. c0;
       iter_deopts.(!i) <- counters.Perf.deopt_events - d0;
       if !Trace.on then begin
         let ts = Engine.cycles eng in
         Trace.counter_at ~cat:"experiments" ~ts "iter_cycles"
           iter_cycles.(!i);
         Trace.counter_at ~cat:"experiments" ~ts "iter_deopts"
           (float_of_int iter_deopts.(!i))
       end;
       Engine.iteration_safepoint eng;
       incr i
     done
   with
  | Support.Fault.Fault _ as e -> raise e
  | Exec.Machine_fault m -> error := Some ("machine fault in setup: " ^ m)
  | Builtins.Js_error m -> error := Some ("js error in setup: " ^ m)
  | Heap.Out_of_memory -> error := Some "out of memory"
  | e -> error := Some ("setup divergence: " ^ Printexc.to_string e));
  (* Sample attribution.  The window back-walk is per code object, not
     per sample batch: precompute it once per code id and reuse it
     across attributions. *)
  let window_acc = Array.make 6 0 in
  let truth_acc = Array.make 6 0 in
  let jit_samples = ref 0 in
  let total_samples = ref 0 in
  let window_maps : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let window_map_for code_id code =
    match Hashtbl.find_opt window_maps code_id with
    | Some wm -> wm
    | None ->
      let wm = check_window_map code in
      Hashtbl.add window_maps code_id wm;
      wm
  in
  (match Engine.sampler eng with
  | None -> ()
  | Some s ->
    total_samples := Perf.total_samples s;
    List.iter
      (fun (code_id, code_total) ->
        if code_id >= 0 then begin
          match Engine.code_of_id eng code_id with
          | None -> ()
          | Some code ->
            let samples =
              Perf.samples_for s ~code_id ~size:(Array.length code.Code.insns)
            in
            let wm = window_map_for code_id code in
            jit_samples :=
              !jit_samples
              + attribute_code_with ~window_map:wm ~code ~samples ~window_acc
                  ~truth_acc;
            (* Folded-stack export of the PC sampler's per-check
               attribution: one frame per code object, leaf frames
               splitting main-line work from each check-group window. *)
            if !Trace.on then begin
              let leaf = Hashtbl.create 8 in
              Array.iteri
                (fun i c ->
                  if c > 0 && i < Array.length wm then begin
                    let frame =
                      if wm.(i) >= 0 then
                        "check:"
                        ^ Insn.group_name (List.nth Insn.all_groups wm.(i))
                      else "main"
                    in
                    Hashtbl.replace leaf frame
                      (c + Option.value ~default:0 (Hashtbl.find_opt leaf frame))
                  end)
                samples;
              Hashtbl.iter
                (fun frame c ->
                  Trace.sample
                    ~stack:
                      (Printf.sprintf "%s;%s;%s" bench.Workloads.Suite.id
                         code.Code.name frame)
                    c)
                leaf
            end
        end
        else if !Trace.on && code_id < 0 then begin
          let frame =
            if code_id = Perf.runtime_code_id then "runtime"
            else if code_id = Perf.builtin_code_id then "builtin"
            else if code_id = Perf.gc_code_id then "gc"
            else "other"
          in
          if code_total > 0 then
            Trace.sample
              ~stack:(bench.Workloads.Suite.id ^ ";" ^ frame)
              code_total
        end)
      (Perf.samples_by_code s));
  let static_checks, static_insns =
    List.fold_left
      (fun (c, n) code ->
        (c + Code.static_check_instructions code, n + Code.real_instructions code))
      (0, 0) (Engine.all_codes eng)
  in
  {
    bench;
    arch = config.Engine.arch;
    iterations;
    checksum = !checksum;
    error = !error;
    iter_cycles;
    iter_deopts;
    counters = copy_counters counters;
    total_cycles = Engine.cycles eng;
    jit_samples = !jit_samples;
    total_samples = !total_samples;
    window_check_samples = window_acc;
    truth_check_samples = truth_acc;
    static_checks;
    static_insns;
    compiles = Engine.compile_count eng;
    gc_runs = Heap.gc_count h;
  }

let calibrate_removable ?(iterations = 100) ~config bench =
  (* A normal run records which deopt reasons actually fire; their
     groups must keep their checks (paper Section III-B2). *)
  let eng_fired =
    let eng = Engine.create config bench.Workloads.Suite.source in
    (try drive eng ~calls:iterations with
    | Support.Fault.Fault _ as e -> raise e
    | _ -> ());
    Engine.deopt_counts eng
  in
  let fired_groups =
    List.sort_uniq compare
      (List.map (fun (reason, _) -> Insn.group_of_reason reason) eng_fired)
  in
  let removable =
    List.filter (fun g -> not (List.mem g fired_groups)) Insn.all_groups
  in
  (removable, fired_groups)

let overhead_window r =
  if r.jit_samples = 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 r.window_check_samples)
    /. float_of_int r.jit_samples

let overhead_truth r =
  if r.jit_samples = 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 r.truth_check_samples)
    /. float_of_int r.jit_samples

let checks_per_100 r =
  if r.counters.Perf.jit_instructions = 0 then 0.0
  else
    100.0
    *. float_of_int r.counters.Perf.check_instructions
    /. float_of_int r.counters.Perf.jit_instructions

let group_window_share r g =
  let total = Array.fold_left ( + ) 0 r.window_check_samples in
  if total = 0 then 0.0
  else
    float_of_int r.window_check_samples.(Insn.group_index g)
    /. float_of_int total

let group_freq_per_100 r g =
  if r.counters.Perf.jit_instructions = 0 then 0.0
  else
    100.0
    *. float_of_int r.counters.Perf.check_per_group.(Insn.group_index g)
    /. float_of_int r.counters.Perf.jit_instructions

let steady_state_cycles r =
  let n = Array.length r.iter_cycles in
  if n = 0 then 0.0
  else begin
    (* Tail mean in place: same summation order as Stats.mean over the
       Array.sub slice, without allocating it. *)
    let from = n - max 1 (n / 3) in
    let sum = ref 0.0 in
    for i = from to n - 1 do
      sum := !sum +. r.iter_cycles.(i)
    done;
    !sum /. float_of_int (n - from)
  end
