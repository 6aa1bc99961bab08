(* Execution front end: selects between the pre-decoded threaded-code
   engine (Decode, the default) and the direct interpreter below, which
   is kept as the executable specification of the machine semantics.
   The two must stay bit-identical — see the exec-determinism tests. *)

type host = Decode.host = {
  memory : int array;
  call_builtin : int -> int array -> int;
  call_js : int -> int array -> int;
}

type snapshot = Decode.snapshot = {
  s_regs : int array;
  s_fregs : float array;
  s_slots : int array;
  s_fslots : float array;
}

type outcome = Decode.outcome =
  | Done of int
  | Deopt of {
      deopt_id : int;
      reason : Insn.deopt_reason;
      snapshot : snapshot;
      via_smi_ext : bool;
    }

exception Machine_fault = Decode.Machine_fault

let fault = Decode.fault

(* Special register indexes inside the GP register file. *)
let reg_ba = Decode.reg_ba
let reg_pc = Decode.reg_pc
let reg_re = Decode.reg_re
let sext32 = Decode.sext32
let reason_code = Decode.reason_code

type flags = {
  mutable fz : bool;
  mutable fn : bool;
  mutable fv : bool;
  mutable fc : bool;      (* carry: for sub, unsigned a >= b *)
  mutable funord : bool;  (* last fcmp was unordered (NaN) *)
}

let run_direct (cpu : Cpu.t) ~host ~(code : Code.t) ~args =
  let regs = Array.make (Insn.num_gp_regs + 3) 0 in
  let fregs = Array.make Insn.num_fp_regs 0.0 in
  let slots = Array.make (max 1 code.Code.gp_slots) 0 in
  let fslots = Array.make (max 1 code.Code.fp_slots) 0.0 in
  let n_args = min (Array.length args) Insn.num_arg_regs in
  Array.blit args 0 regs 0 n_args;
  let mem = host.memory in
  let insns = code.Code.insns in
  let n_insns = Array.length insns in
  let base = code.Code.base_addr in
  let code_id = code.Code.code_id in
  let flags = { fz = false; fn = false; fv = false; fc = false; funord = false } in
  let rr = cpu.Cpu.reg_ready and fr = cpu.Cpu.freg_ready in
  let counters = cpu.Cpu.counters in
  (* Per-argc call-argument buffers, allocated on first use; the host
     callbacks only read the argument window for the duration of the
     call, so the buffers can be reused across calls. *)
  let scratch = ref [||] in
  let scratch_buf argc =
    if Array.length !scratch = 0 then
      scratch := Array.make (Insn.num_gp_regs + 4) [||];
    let s = !scratch in
    let b = s.(argc) in
    if Array.length b = argc then b
    else begin
      let b = Array.make argc 0 in
      s.(argc) <- b;
      b
    end
  in

  let mem_index a =
    if a land 1 <> 0 then fault "%s: unaligned address %d" code.Code.name a;
    let i = a asr 1 in
    if i < 0 || i >= Array.length mem then
      fault "%s: address %d out of range" code.Code.name a;
    i
  in
  (* Second word of a two-word (float) access; [i0] has been checked. *)
  let mem_index2 a i0 =
    if i0 + 1 >= Array.length mem then
      fault "%s: address %d out of range" code.Code.name (a + 2);
    i0 + 1
  in
  let eff_addr (a : Insn.addr) =
    let base = regs.(a.Insn.base) in
    let idx =
      match a.Insn.index with
      | None -> 0
      | Some r -> regs.(r) * a.Insn.scale
    in
    base + idx + a.Insn.offset
  in
  let addr_ready (a : Insn.addr) =
    match a.Insn.index with
    | None -> rr.(a.Insn.base)
    | Some r -> Float.max rr.(a.Insn.base) rr.(r)
  in
  let operand_value = function Insn.Reg r -> regs.(r) | Insn.Imm i -> i in
  let operand_ready = function Insn.Reg r -> rr.(r) | Insn.Imm _ -> 0.0 in
  let set_add_sub_flags a b result is_sub =
    let r32 = sext32 result in
    flags.fz <- r32 = 0;
    flags.fn <- r32 < 0;
    flags.funord <- false;
    (* Signed overflow of 32-bit add/sub. *)
    if is_sub then begin
      flags.fv <- (a >= 0 && b < 0 && r32 < 0) || (a < 0 && b >= 0 && r32 >= 0);
      flags.fc <- a land 0xFFFFFFFF >= b land 0xFFFFFFFF
    end
    else begin
      flags.fv <- (a >= 0 && b >= 0 && r32 < 0) || (a < 0 && b < 0 && r32 >= 0);
      flags.fc <- (a land 0xFFFFFFFF) + (b land 0xFFFFFFFF) > 0xFFFFFFFF
    end
  in
  let eval_cond c =
    if flags.funord then begin
      (* Unordered float compare: only Ne and Vs hold (NaN-safe). *)
      match c with
      | Insn.Ne | Insn.Vs -> true
      | Insn.Eq | Insn.Lt | Insn.Le | Insn.Gt | Insn.Ge | Insn.Vc | Insn.Hs
      | Insn.Lo ->
        false
    end
    else begin
      match c with
      | Insn.Eq -> flags.fz
      | Insn.Ne -> not flags.fz
      | Insn.Lt -> flags.fn <> flags.fv
      | Insn.Ge -> flags.fn = flags.fv
      | Insn.Le -> flags.fz || flags.fn <> flags.fv
      | Insn.Gt -> (not flags.fz) && flags.fn = flags.fv
      | Insn.Vs -> flags.fv
      | Insn.Vc -> not flags.fv
      | Insn.Hs -> flags.fc
      | Insn.Lo -> not flags.fc
    end
  in
  let take_snapshot () =
    {
      s_regs = Array.copy regs;
      s_fregs = Array.copy fregs;
      s_slots = Array.copy slots;
      s_fslots = Array.copy fslots;
    }
  in
  let count_check (i : Insn.t) branch =
    match i.Insn.prov with
    | Insn.Check { group; _ } ->
      Perf.note_check counters ~group_index:(Insn.group_index group) ~branch
    | Insn.Main_line | Insn.Shared -> ()
  in

  let pc = ref 0 in
  let result = ref None in
  let clk = cpu.Cpu.clk in
  while !result = None do
    if clk.Cpu.now > clk.Cpu.fuel_limit then
      Cpu.watchdog_trip clk ~what:code.Code.name;
    if !pc >= n_insns then fault "%s: fell off code end" code.Code.name;
    let i = insns.(!pc) in
    let k = i.Insn.kind in
    if not (Insn.is_pseudo k) then begin
      Cpu.fetch cpu ~addr:(base + !pc);
      Cpu.sample cpu ~code_id ~pc:!pc;
      counters.Perf.jit_instructions <- counters.Perf.jit_instructions + 1;
      count_check i
        (match k with Insn.Deopt_if _ -> true | _ -> false)
    end;
    let next = ref (!pc + 1) in
    (match k with
    | Insn.Label _ | Insn.Checkpoint _ | Insn.Nop -> ()
    | Insn.Mov (d, rhs) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_alu ~ready:(operand_ready rhs) in
      regs.(d) <- operand_value rhs;
      rr.(d) <- t
    | Insn.Ldr (d, a) ->
      let ea = eff_addr a in
      let t = Cpu.issue_load cpu ~ready:(addr_ready a) ~addr:ea in
      regs.(d) <- mem.(mem_index ea);
      rr.(d) <- t
    | Insn.Str (a, s) ->
      let ea = eff_addr a in
      let ready = Float.max (addr_ready a) rr.(s) in
      ignore (Cpu.issue_store cpu ~ready ~addr:ea);
      mem.(mem_index ea) <- regs.(s)
    | Insn.Ldr_f (d, a) ->
      let ea = eff_addr a in
      let t = Cpu.issue_load cpu ~ready:(addr_ready a) ~addr:ea in
      let i0 = mem_index ea in
      let i1 = mem_index2 ea i0 in
      let lo = Int64.of_int (mem.(i0) land 0xFFFFFFFF) in
      let hi = Int64.of_int (mem.(i1) land 0xFFFFFFFF) in
      fregs.(d) <- Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32));
      fr.(d) <- t
    | Insn.Str_f (a, s) ->
      let ea = eff_addr a in
      let ready = Float.max (addr_ready a) fr.(s) in
      ignore (Cpu.issue_store cpu ~ready ~addr:ea);
      let bits = Int64.bits_of_float fregs.(s) in
      let i0 = mem_index ea in
      let i1 = mem_index2 ea i0 in
      mem.(i0) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
      mem.(i1) <- Int64.to_int (Int64.shift_right_logical bits 32)
    | Insn.Alu { op; dst; src; rhs; set_flags } ->
      let a = regs.(src) and b = operand_value rhs in
      let ready = Float.max rr.(src) (operand_ready rhs) in
      let cls =
        match op with
        | Insn.Mul -> Cpu.C_mul
        | Insn.Sdiv | Insn.Smod -> Cpu.C_div
        | _ -> Cpu.C_alu
      in
      let t = Cpu.issue cpu ~cls ~ready in
      let raw =
        match op with
        | Insn.Add -> a + b
        | Insn.Sub -> a - b
        | Insn.Mul -> a * b
        | Insn.Sdiv -> if b = 0 then 0 else a / b
        | Insn.Smod -> if b = 0 then 0 else a mod b
        | Insn.And -> a land b
        | Insn.Orr -> a lor b
        | Insn.Eor -> a lxor b
        | Insn.Lsl -> a lsl (b land 31)
        | Insn.Lsr -> (a land 0xFFFFFFFF) lsr (b land 31)
        | Insn.Asr -> a asr (b land 31)
      in
      if set_flags then begin
        match op with
        | Insn.Add -> set_add_sub_flags a b raw false
        | Insn.Sub -> set_add_sub_flags a b raw true
        | Insn.Mul ->
          (* smulls-style: overflow when the 64-bit product does not
             fit in 32 bits. *)
          let r32 = sext32 raw in
          flags.fz <- r32 = 0;
          flags.fn <- r32 < 0;
          flags.fv <- raw <> r32;
          flags.funord <- false
        | _ ->
          let r32 = sext32 raw in
          flags.fz <- r32 = 0;
          flags.fn <- r32 < 0;
          flags.fv <- false;
          flags.funord <- false
      end;
      regs.(dst) <- sext32 raw;
      rr.(dst) <- t;
      if set_flags then cpu.Cpu.clk.Cpu.flags_ready <- t
    | Insn.Alu_mem { op; dst; src; mem = a } ->
      let ea = eff_addr a in
      let ready = Float.max rr.(src) (addr_ready a) in
      let t = Cpu.issue_load cpu ~ready ~addr:ea in
      let b = mem.(mem_index ea) in
      let av = regs.(src) in
      let raw =
        match op with
        | Insn.Add -> av + b
        | Insn.Sub -> av - b
        | Insn.And -> av land b
        | Insn.Orr -> av lor b
        | Insn.Eor -> av lxor b
        | Insn.Mul -> av * b
        | Insn.Sdiv -> if b = 0 then 0 else av / b
        | Insn.Smod -> if b = 0 then 0 else av mod b
        | Insn.Lsl | Insn.Lsr | Insn.Asr ->
          fault "%s: shift with memory operand" code.Code.name
      in
      regs.(dst) <- sext32 raw;
      rr.(dst) <- t +. 1.0
    | Insn.Cmp (a, rhs) ->
      let av = regs.(a) and bv = operand_value rhs in
      let ready = Float.max rr.(a) (operand_ready rhs) in
      let t = Cpu.issue cpu ~cls:Cpu.C_alu ~ready in
      set_add_sub_flags av bv (av - bv) true;
      cpu.Cpu.clk.Cpu.flags_ready <- t
    | Insn.Cmp_mem (a, m) ->
      let ea = eff_addr m in
      let ready = Float.max rr.(a) (addr_ready m) in
      let t = Cpu.issue_load cpu ~ready ~addr:ea in
      let bv = mem.(mem_index ea) in
      let av = regs.(a) in
      set_add_sub_flags av bv (av - bv) true;
      cpu.Cpu.clk.Cpu.flags_ready <- t +. 1.0
    | Insn.Tst (a, rhs) ->
      let av = regs.(a) and bv = operand_value rhs in
      let ready = Float.max rr.(a) (operand_ready rhs) in
      let t = Cpu.issue cpu ~cls:Cpu.C_alu ~ready in
      let r = sext32 (av land bv) in
      flags.fz <- r = 0;
      flags.fn <- r < 0;
      flags.fv <- false;
      flags.funord <- false;
      cpu.Cpu.clk.Cpu.flags_ready <- t
    | Insn.Fmov (d, s) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_falu ~ready:fr.(s) in
      fregs.(d) <- fregs.(s);
      fr.(d) <- t
    | Insn.Fmov_imm (d, v) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_falu ~ready:0.0 in
      fregs.(d) <- v;
      fr.(d) <- t
    | Insn.Falu { op; dst; a; b } ->
      let ready = Float.max fr.(a) fr.(b) in
      let cls =
        match op with
        | Insn.Fadd | Insn.Fsub -> Cpu.C_falu
        | Insn.Fmul -> Cpu.C_fmul
        | Insn.Fdiv -> Cpu.C_fdiv
      in
      let t = Cpu.issue cpu ~cls ~ready in
      let av = fregs.(a) and bv = fregs.(b) in
      fregs.(dst) <-
        (match op with
        | Insn.Fadd -> av +. bv
        | Insn.Fsub -> av -. bv
        | Insn.Fmul -> av *. bv
        | Insn.Fdiv -> av /. bv);
      fr.(dst) <- t
    | Insn.Fcmp (a, b) ->
      let ready = Float.max fr.(a) fr.(b) in
      let t = Cpu.issue cpu ~cls:Cpu.C_falu ~ready in
      let av = fregs.(a) and bv = fregs.(b) in
      if Float.is_nan av || Float.is_nan bv then begin
        flags.fz <- false;
        flags.fn <- false;
        flags.fv <- true;
        flags.funord <- true
      end
      else begin
        flags.fz <- av = bv;
        flags.fn <- av < bv;
        flags.fv <- false;
        flags.fc <- av >= bv;
        flags.funord <- false
      end;
      cpu.Cpu.clk.Cpu.flags_ready <- t
    | Insn.Scvtf (d, s) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_fcvt ~ready:rr.(s) in
      fregs.(d) <- float_of_int regs.(s);
      fr.(d) <- t
    | Insn.Fcvtzs (d, s) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_fcvt ~ready:fr.(s) in
      let v = fregs.(s) in
      regs.(d) <- (if Float.is_nan v then 0 else sext32 (int_of_float v));
      rr.(d) <- t
    | Insn.B l ->
      ignore
        (Cpu.issue_branch cpu ~pc:(base + !pc) ~ready:0.0 ~taken:true);
      next := code.Code.label_index.(l)
    | Insn.Bcond (c, l) ->
      let taken = eval_cond c in
      ignore
        (Cpu.issue_branch cpu ~pc:(base + !pc)
           ~ready:cpu.Cpu.clk.Cpu.flags_ready ~taken);
      if taken then next := code.Code.label_index.(l)
    | Insn.Deopt_if (c, dp) ->
      let taken = eval_cond c in
      ignore
        (Cpu.issue_branch cpu ~pc:(base + !pc)
           ~ready:cpu.Cpu.clk.Cpu.flags_ready ~taken);
      if taken then begin
        let point = code.Code.deopts.(dp) in
        counters.Perf.deopt_events <- counters.Perf.deopt_events + 1;
        result :=
          Some
            (Deopt
               {
                 deopt_id = dp;
                 reason = point.Code.reason;
                 snapshot = take_snapshot ();
                 via_smi_ext = false;
               })
      end
    | Insn.Js_ldr_smi { dst; mem = a; deopt } ->
      (* Fused load + Not-a-SMI check + untagging shift (Fig 12).
         The check and shift run in the load unit, in parallel. *)
      let ea = eff_addr a in
      let t =
        Cpu.issue_load cpu ~ready:(addr_ready a) ~addr:ea
      in
      let t = t +. cpu.Cpu.cfg.Cpu.smi_load_extra in
      let w = mem.(mem_index ea) in
      if w land 1 <> 0 then begin
        (* Check failed: write REG_PC / REG_RE; commit triggers the
           bailout through the handler at REG_BA. *)
        let point = code.Code.deopts.(deopt) in
        regs.(reg_pc) <- base + !pc;
        regs.(reg_re) <- reason_code point.Code.reason;
        counters.Perf.deopt_events <- counters.Perf.deopt_events + 1;
        if regs.(reg_ba) = 0 then
          fault "%s: jsldrsmi bailout with REG_BA unset" code.Code.name;
        result :=
          Some
            (Deopt
               {
                 deopt_id = deopt;
                 reason = point.Code.reason;
                 snapshot = take_snapshot ();
                 via_smi_ext = true;
               })
      end
      else begin
        regs.(dst) <- w asr 1;
        rr.(dst) <- t
      end
    | Insn.Js_chk_map { mem = a; expected; deopt } ->
      (* Future-work fused map check: load + compare in the load
         unit; branch-free bailout like jsldrsmi. *)
      let ea = eff_addr a in
      ignore (Cpu.issue_load cpu ~ready:(addr_ready a) ~addr:ea);
      let w = mem.(mem_index ea) in
      if w <> expected then begin
        let point = code.Code.deopts.(deopt) in
        regs.(reg_pc) <- base + !pc;
        regs.(reg_re) <- reason_code point.Code.reason;
        counters.Perf.deopt_events <- counters.Perf.deopt_events + 1;
        if regs.(reg_ba) = 0 then
          fault "%s: jschkmap bailout with REG_BA unset" code.Code.name;
        result :=
          Some
            (Deopt
               {
                 deopt_id = deopt;
                 reason = point.Code.reason;
                 snapshot = take_snapshot ();
                 via_smi_ext = true;
               })
      end
    | Insn.Call (target, argc) ->
      (* All registers are caller-saved; args in r0..r(argc-1). *)
      let ready =
        let r = ref cpu.Cpu.clk.Cpu.flags_ready in
        for i = 0 to argc - 1 do
          if rr.(i) > !r then r := rr.(i)
        done;
        !r
      in
      let t = Cpu.issue cpu ~cls:Cpu.C_call ~ready in
      (* Synchronize dispatch with the call. *)
      if t > cpu.Cpu.clk.Cpu.now then cpu.Cpu.clk.Cpu.now <- t;
      let args_view = scratch_buf argc in
      Array.blit regs 0 args_view 0 argc;
      let res =
        match target with
        | Insn.Builtin b -> host.call_builtin b args_view
        | Insn.Js_code f -> host.call_js f args_view
      in
      regs.(0) <- res;
      let after = Float.max cpu.Cpu.clk.Cpu.now t in
      rr.(0) <- after;
      for i = 1 to Insn.num_gp_regs - 1 do
        rr.(i) <- Float.min rr.(i) after
      done
    | Insn.Ret ->
      ignore
        (Cpu.issue_branch cpu ~pc:(base + !pc) ~ready:rr.(0) ~taken:true);
      result := Some (Done regs.(0))
    | Insn.Spill (slot, s) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_store ~ready:rr.(s) in
      ignore t;
      slots.(slot) <- regs.(s)
    | Insn.Reload (d, slot) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_load ~ready:0.0 in
      regs.(d) <- slots.(slot);
      rr.(d) <- t +. 2.0 (* L1-hit reload *)
    | Insn.Spill_f (slot, s) ->
      ignore (Cpu.issue cpu ~cls:Cpu.C_store ~ready:fr.(s));
      fslots.(slot) <- fregs.(s)
    | Insn.Reload_f (d, slot) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_load ~ready:0.0 in
      fregs.(d) <- fslots.(slot);
      fr.(d) <- t +. 2.0
    | Insn.Msr (sp, s) ->
      let t = Cpu.issue cpu ~cls:Cpu.C_alu ~ready:rr.(s) in
      let idx =
        match sp with
        | Insn.Reg_ba -> reg_ba
        | Insn.Reg_pc -> reg_pc
        | Insn.Reg_re -> reg_re
      in
      regs.(idx) <- regs.(s);
      rr.(idx) <- t
    | Insn.Mrs (d, sp) ->
      let idx =
        match sp with
        | Insn.Reg_ba -> reg_ba
        | Insn.Reg_pc -> reg_pc
        | Insn.Reg_re -> reg_re
      in
      let t = Cpu.issue cpu ~cls:Cpu.C_alu ~ready:rr.(idx) in
      regs.(d) <- regs.(idx);
      rr.(d) <- t);
    pc := !next
  done;
  match !result with
  | Some r -> r
  | None -> fault "%s: executor loop exited without result" code.Code.name

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

type engine_kind = Direct | Decoded

(* Parsed once at module initialisation, not through a [lazy]: OCaml 5
   raises [CamlinternalLazy.Undefined] in a domain that forces a lazy
   value while another domain is forcing it.  A bad value still raises
   [Knob.Invalid] at first use (binaries reject it at startup). *)
let env_engine =
  let read =
    Support.Knob.string "VSPEC_EXEC" ~default:Decoded (function
      | "decoded" -> Ok Decoded
      | "direct" -> Ok Direct
      | _ -> Error "decoded or direct")
  in
  try Ok (read ()) with Support.Knob.Invalid _ as e -> Error e

let engine_override : engine_kind option ref = ref None
let set_engine k = engine_override := k

let current_engine () =
  match !engine_override with
  | Some k -> k
  | None -> ( match env_engine with Ok k -> k | Error e -> raise e)

let run cpu ~host ~code ~args =
  match current_engine () with
  | Decoded -> Decode.run cpu ~host ~code ~args
  | Direct -> run_direct cpu ~host ~code ~args

let warm code =
  match current_engine () with
  | Decoded -> Decode.warm code
  | Direct -> ()

let frame_value snapshot ~materialize_double = function
  | Code.Fv_reg r -> snapshot.s_regs.(r)
  | Code.Fv_reg32 r -> snapshot.s_regs.(r) lsl 1
  | Code.Fv_freg f -> materialize_double snapshot.s_fregs.(f)
  | Code.Fv_slot s -> snapshot.s_slots.(s)
  | Code.Fv_slot32 s -> snapshot.s_slots.(s) lsl 1
  | Code.Fv_fslot s -> materialize_double snapshot.s_fslots.(s)
  | Code.Fv_const c -> c
  | Code.Fv_fconst f -> materialize_double f
  | Code.Fv_dead -> 0
