(* Pre-decoded threaded-code execution engine with block-batched
   accounting.

   [compile] lowers a [Code.t] once into a flat array of micro-op
   closures, one dispatch slot per instruction: operand indexes,
   effective-address components, latency classes, check provenance,
   branch targets, fetch addresses and cache-line numbers are all
   resolved at decode time.  A batching pass precomputes each
   straight-line block's aggregate static counter cost so the dispatch
   loop charges one integer update per block instead of per
   instruction; only dynamic events (branch resolution, memory
   hierarchy, sampler windows, watchdog fuel) are modeled individually.
   Pseudo-instructions (labels, checkpoints) are compiled away and
   branch targets are remapped onto the compacted micro-op array.
   [VSPEC_EXEC=direct] is the only way back to the per-instruction
   interpreter.

   The program is cached on the code object itself
   ([Code.decode_cache]); recompilation allocates a fresh [Code.t], so
   stale programs are unreachable by construction, and the cache needs
   no cross-domain coordination because a code object belongs to
   exactly one engine (and thus one domain).

   Bit-identity contract: for any program and CPU model, this engine
   must produce exactly the same outcome, memory, timing state and
   counters as [Exec.run_direct].  The timing model exists once, in
   [Cpu]: each micro-op calls the [Cpu.time_*] path that the direct
   engine's [Cpu.issue]* wraps, in the same order with the same
   operands; only the static retirement counters are charged per block
   instead.  The determinism tests assert digest equality of whole
   experiment results between the two engines. *)

type host = {
  memory : int array;
  call_builtin : int -> int array -> int;
  call_js : int -> int array -> int;
}

type snapshot = {
  s_regs : int array;
  s_fregs : float array;
  s_slots : int array;
  s_fslots : float array;
}

type outcome =
  | Done of int
  | Deopt of {
      deopt_id : int;
      reason : Insn.deopt_reason;
      snapshot : snapshot;
      via_smi_ext : bool;
    }

exception Machine_fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Machine_fault s)) fmt

(* Special register indexes inside the GP register file. *)
let reg_ba = Insn.num_gp_regs
let reg_pc = Insn.num_gp_regs + 1
let reg_re = Insn.num_gp_regs + 2

let sext32 x =
  let w = x land 0xFFFFFFFF in
  if w >= 0x80000000 then w - 0x100000000 else w

(* Deopt reason encoding written to REG_RE by the SMI-extension bailout
   path (paper: an 8-bit deoptimization-reason code). *)
let reason_code = function
  | Insn.Not_a_smi -> 1
  | Insn.Smi -> 2
  | Insn.Out_of_bounds -> 3
  | Insn.Wrong_map -> 4
  | Insn.Overflow -> 5
  | Insn.Lost_precision -> 6
  | Insn.Division_by_zero -> 7
  | Insn.Minus_zero -> 8
  | Insn.Not_a_number -> 9
  | Insn.Wrong_value -> 10
  | Insn.Hole -> 11
  | Insn.Insufficient_feedback -> 12

(* Mutable machine state of one activation.  Flags live inline (the
   direct engine allocates a flags record per run); register-ready
   arrays alias the CPU's own. *)
type st = {
  cpu : Cpu.t;
  clk : Cpu.clock; (* = cpu.clk, cached to save an indirection *)
  counters : Perf.counters;
  fstats : Perf.batching;
  regs : int array;
  fregs : float array;
  slots : int array;
  fslots : float array;
  rr : float array;
  fr : float array;
  mem : int array;
  host : host;
  mutable scratch : int array array;
      (* per-argc call-argument buffers, allocated on first Call *)
  mutable fz : bool;
  mutable fn : bool;
  mutable fv : bool;
  mutable fc : bool;
  mutable funord : bool;
  mutable outcome : outcome;
}

(* A micro-op executes one retired instruction and returns the index of
   the next micro-op, or -1 after setting [st.outcome]. *)
type uop = st -> int

(* Signed static integer-counter cost of a run of micro-ops.  One
   record per basic block is charged at block entry; the same shape,
   stored negated, is the refund applied when a block exits early
   (mid-block deopt bailout or machine fault), so the committed
   counters equal the direct interpreter's exactly on every path.
   Only order-independent integer counters can be batched like this:
   all float state (clock, stall accumulators) is non-associative and
   stays per-instruction. *)
type delta = {
  d_instr : int;
  d_jit : int;
  d_loads : int;
  d_stores : int;
  d_branches : int;
  d_chk : int;
  d_chkbr : int;
  d_groups : int array; (* length 6; the shared all-zero array if empty *)
  d_blocks : int;
      (* 1 in a block's entry charge, 0 in refunds: [batched_blocks]
         counts charge events, not retired instructions *)
}

let zeros6 = Array.make 6 0

let no_delta =
  {
    d_instr = 0;
    d_jit = 0;
    d_loads = 0;
    d_stores = 0;
    d_branches = 0;
    d_chk = 0;
    d_chkbr = 0;
    d_groups = zeros6;
    d_blocks = 0;
  }

(* Decode-time static coverage of one compiled program. *)
type stats = { st_uops : int; st_blocks : int }

(* The compiled form: one closure per micro-op plus flat side arrays of
   decode-time constants consumed by the dispatch loop's shared
   prologue (fetch address or -1 when the i-cache line provably cannot
   have changed, original instruction index for sampler attribution,
   basic-block id at block-leader slots with its batched counter delta,
   and a machine-fault refund per slot). *)
type program = {
  p_name : string;
  p_code_id : int;
  p_uops : uop array;
      (* [length = uops + 1]: the last slot is a sentinel that faults
         on falling off the code end, so the dispatch loop needs no
         per-slot bounds check (every next-index is in range by
         construction). *)
  p_addrs : int array; (* fetch address, or -1 = statically elided *)
  p_pcs : int array;
  p_blocks : int array; (* block id at block-leader slots, else -1 *)
  p_deltas : delta array; (* per block id: batched static cost *)
  p_faults : delta array;
      (* per slot: refund when a Machine_fault escapes this slot *)
  p_stats : stats;
}

type Code.cache += Decoded of program

(* Constants for the benchmark's engine-configuration warm-up; they
   exist only until the benchmark's next change drops the calls. *)
let fuse_enabled () = false
let batch_enabled () = true

(* Ready times are completion timestamps: always finite, never NaN and
   never negative, so a branchy max is exactly [Float.max] without the
   boxing of a non-inlined float call. *)
let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* Register-file accesses in the hot micro-ops: every register index is
   range-checked once at decode time ([compile]'s [vreg]/[vfreg]), so
   the per-execution bounds checks are dropped. *)
let[@inline] rget st r = Array.unsafe_get st.regs r
let[@inline] rset st r (v : int) = Array.unsafe_set st.regs r v
let[@inline] tget st r : float = Array.unsafe_get st.rr r
let[@inline] tset st r (v : float) = Array.unsafe_set st.rr r v

(* Apply a signed delta to the static integer counters: a block's
   charge at entry, or the stored-negated refund of a block's
   unexecuted suffix on the cold early-exit paths (deopt bailouts,
   machine faults).  Integer adds only; they commute with everything
   the micro-op bodies do, so charging at block entry instead of per
   retired instruction is invisible in the final counters. *)
let add st (d : delta) =
  let c = st.counters in
  c.Perf.instructions <- c.Perf.instructions + d.d_instr;
  c.Perf.jit_instructions <- c.Perf.jit_instructions + d.d_jit;
  c.Perf.loads <- c.Perf.loads + d.d_loads;
  c.Perf.stores <- c.Perf.stores + d.d_stores;
  c.Perf.branches <- c.Perf.branches + d.d_branches;
  if d.d_chk <> 0 then begin
    c.Perf.check_instructions <- c.Perf.check_instructions + d.d_chk;
    c.Perf.check_branches <- c.Perf.check_branches + d.d_chkbr;
    let g = d.d_groups in
    if g != zeros6 then begin
      let pg = c.Perf.check_per_group in
      for gi = 0 to 5 do
        let v = Array.unsafe_get g gi in
        if v <> 0 then Array.unsafe_set pg gi (Array.unsafe_get pg gi + v)
      done
    end
  end;
  let fs = st.fstats in
  fs.Perf.batched_blocks <- fs.Perf.batched_blocks + d.d_blocks

let[@inline] mem_index st name a =
  if a land 1 <> 0 then fault "%s: unaligned address %d" name a;
  let i = a asr 1 in
  if i < 0 || i >= Array.length st.mem then
    fault "%s: address %d out of range" name a;
  i

(* Second word of a two-word (float) access; [i0] has been checked. *)
let[@inline] mem_index2 st name a i0 =
  if i0 + 1 >= Array.length st.mem then
    fault "%s: address %d out of range" name (a + 2);
  i0 + 1

let[@inline] set_add_sub_flags st a b result is_sub =
  let r32 = sext32 result in
  st.fz <- r32 = 0;
  st.fn <- r32 < 0;
  st.funord <- false;
  (* Signed overflow of 32-bit add/sub. *)
  if is_sub then begin
    st.fv <- (a >= 0 && b < 0 && r32 < 0) || (a < 0 && b >= 0 && r32 >= 0);
    st.fc <- a land 0xFFFFFFFF >= b land 0xFFFFFFFF
  end
  else begin
    st.fv <- (a >= 0 && b >= 0 && r32 < 0) || (a < 0 && b < 0 && r32 >= 0);
    st.fc <- (a land 0xFFFFFFFF) + (b land 0xFFFFFFFF) > 0xFFFFFFFF
  end

let[@inline] set_logic_flags st raw =
  let r32 = sext32 raw in
  st.fz <- r32 = 0;
  st.fn <- r32 < 0;
  st.fv <- false;
  st.funord <- false

(* Decode-time specialization of the direct engine's [eval_cond]: one
   closure per static condition code, with the unordered-compare rule
   folded in (NaN compares satisfy only Ne and Vs). *)
let cond_fn c : st -> bool =
  match c with
  | Insn.Eq -> fun st -> (not st.funord) && st.fz
  | Insn.Ne -> fun st -> st.funord || not st.fz
  | Insn.Lt -> fun st -> (not st.funord) && st.fn <> st.fv
  | Insn.Ge -> fun st -> (not st.funord) && st.fn = st.fv
  | Insn.Le -> fun st -> (not st.funord) && (st.fz || st.fn <> st.fv)
  | Insn.Gt -> fun st -> (not st.funord) && (not st.fz) && st.fn = st.fv
  | Insn.Vs -> fun st -> st.funord || st.fv
  | Insn.Vc -> fun st -> (not st.funord) && not st.fv
  | Insn.Hs -> fun st -> (not st.funord) && st.fc
  | Insn.Lo -> fun st -> (not st.funord) && not st.fc

let take_snapshot st =
  {
    s_regs = Array.copy st.regs;
    s_fregs = Array.copy st.fregs;
    s_slots = Array.copy st.slots;
    s_fslots = Array.copy st.fslots;
  }

let[@inline] scratch_buf st argc =
  if Array.length st.scratch = 0 then
    st.scratch <- Array.make (Insn.num_gp_regs + 4) [||];
  let b = st.scratch.(argc) in
  if Array.length b = argc then b
  else begin
    let b = Array.make argc 0 in
    st.scratch.(argc) <- b;
    b
  end

let alu_raw op a b =
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

let set_alu_flags st op a b raw =
  match op with
  | Insn.Add -> set_add_sub_flags st a b raw false
  | Insn.Sub -> set_add_sub_flags st a b raw true
  | Insn.Mul ->
    (* smulls-style: overflow when the 64-bit product does not fit in
       32 bits. *)
    let r32 = sext32 raw in
    st.fz <- r32 = 0;
    st.fn <- r32 < 0;
    st.fv <- raw <> r32;
    st.funord <- false
  | Insn.Sdiv | Insn.Smod | Insn.And | Insn.Orr | Insn.Eor | Insn.Lsl
  | Insn.Lsr | Insn.Asr ->
    set_logic_flags st raw

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)
(* ------------------------------------------------------------------ *)

let compile (code : Code.t) : program =
  let insns = code.Code.insns in
  let n = Array.length insns in
  let name = code.Code.name in
  let base = code.Code.base_addr in
  let code_id = code.Code.code_id in
  let deopts = code.Code.deopts in
  (* Pseudo-instructions are compiled away: map every instruction index
     to its micro-op index (for branch-target remapping). *)
  let uop_of_insn = Array.make (n + 1) 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    uop_of_insn.(i) <- !count;
    if not (Insn.is_pseudo insns.(i).Insn.kind) then incr count
  done;
  uop_of_insn.(n) <- !count;
  let n_uops = !count in
  let insn_of_uop = Array.make (max 1 n_uops) 0 in
  for i = n - 1 downto 0 do
    if not (Insn.is_pseudo insns.(i).Insn.kind) then
      insn_of_uop.(uop_of_insn.(i)) <- i
  done;
  let utarget l = uop_of_insn.(code.Code.label_index.(l)) in
  let ku u = insns.(insn_of_uop.(u)).Insn.kind in
  let uline u = (base + insn_of_uop.(u)) lsr 4 in

  (* ---- basic-block leaders (micro-op space) ----
     A leader starts a straight-line block: entry, every branch target,
     and the fall-through successor of every block terminator (B, Bcond,
     Call, Ret).  Bcond terminates its block on purpose: loop back-edges
     are hot-taken, and ending the block there keeps the taken path free
     of batched-counter refunds.  Deopt_if / Js_ldr_smi / Js_chk_map
     stay mid-block — their exits are cold by construction and pay an
     exact refund instead.  The sentinel index [n_uops] is a leader so
     branches to trailing pseudos resolve. *)
  let leader = Array.make (n_uops + 1) false in
  leader.(0) <- true;
  leader.(n_uops) <- true;
  for u = 0 to n_uops - 1 do
    match ku u with
    | Insn.B l | Insn.Bcond (_, l) ->
      leader.(utarget l) <- true;
      leader.(u + 1) <- true
    | Insn.Call _ | Insn.Ret -> leader.(u + 1) <- true
    | _ -> ()
  done;

  (* ---- accounting blocks: batched charges and early-exit refunds ----
     An accounting block is a control-flow block.  One backward sweep
     accumulates each block's suffix cost from the static per-uop
     accounting: what the direct interpreter's loop and issue paths add
     to the integer counters for one retired instruction (always one
     jit_instruction; one retired instruction unless Nop, which never
     issues; loads/stores/branches by issue path; check provenance from
     [Insn.prov]).

     Before micro-op [u] is added, the suffix is the cost strictly
     AFTER [u]: exactly what the block-entry charge over-counted if
     execution leaves the block right after [u] retires (deopt taken)
     or while [u] itself executes (machine fault; the direct engine has
     fully charged the faulting instruction by then, since its issue
     precedes the memory access).  [refund_at.(u)] stores that suffix
     negated; once the sweep reaches the leader, the suffix is the
     whole block and becomes its entry charge. *)
  let n_blocks = ref 0 in
  let block_of_uop = Array.make (max 1 n_uops) 0 in
  for u = 0 to n_uops - 1 do
    if leader.(u) then incr n_blocks;
    block_of_uop.(u) <- !n_blocks - 1
  done;
  let n_blocks = !n_blocks in
  let p_deltas = Array.make (max 1 n_blocks) no_delta in
  let refund_at = Array.make (n_uops + 1) no_delta in
  let g = Array.make 6 0 in
  let ai = ref 0 and aj = ref 0 and al = ref 0 and asr_ = ref 0 in
  let ab = ref 0 and ac = ref 0 and acb = ref 0 in
  let suffix sign =
    {
      d_instr = sign * !ai;
      d_jit = sign * !aj;
      d_loads = sign * !al;
      d_stores = sign * !asr_;
      d_branches = sign * !ab;
      d_chk = sign * !ac;
      d_chkbr = sign * !acb;
      d_groups = (if !ac <> 0 then Array.map (( * ) sign) g else zeros6);
      d_blocks = (if sign > 0 then 1 else 0);
    }
  in
  for u = n_uops - 1 downto 0 do
    if leader.(u + 1) then begin
      List.iter (fun r -> r := 0) [ ai; aj; al; asr_; ab; ac; acb ];
      Array.fill g 0 6 0
    end;
    if !aj > 0 then refund_at.(u) <- suffix (-1);
    let insn = insns.(insn_of_uop.(u)) in
    incr aj;
    (match insn.Insn.kind with Insn.Nop -> () | _ -> incr ai);
    (match insn.Insn.kind with
    | Insn.Ldr _ | Insn.Ldr_f _ | Insn.Alu_mem _ | Insn.Cmp_mem _
    | Insn.Js_ldr_smi _ | Insn.Js_chk_map _ ->
      incr al
    | Insn.Str _ | Insn.Str_f _ -> incr asr_
    | Insn.B _ | Insn.Bcond _ | Insn.Deopt_if _ | Insn.Ret -> incr ab
    | _ -> ());
    (match insn.Insn.prov with
    | Insn.Check { group; _ } ->
      incr ac;
      let gi = Insn.group_index group in
      g.(gi) <- g.(gi) + 1;
      (match insn.Insn.kind with Insn.Deopt_if _ -> incr acb | _ -> ())
    | Insn.Main_line | Insn.Shared -> ());
    if leader.(u) then p_deltas.(block_of_uop.(u)) <- suffix 1
  done;

  (* Operand validation, once per instruction at decode time: the
     micro-op bodies then use unchecked register-file accesses.  The
     direct interpreter would raise [Invalid_argument] on the first
     execution of such an instruction; rejecting it at decode keeps
     malformed code from executing unchecked. *)
  let n_gp = Insn.num_gp_regs + 3 in
  let vreg r =
    if r < 0 || r >= n_gp then fault "%s: bad register r%d" name r;
    r
  in
  let vfreg r =
    if r < 0 || r >= Insn.num_fp_regs then
      fault "%s: bad fp register f%d" name r;
    r
  in

  (* Effective-address and address-ready evaluation, specialized at
     decode time on the presence of an index register. *)
  let eff (a : Insn.addr) =
    let b = vreg a.Insn.base and off = a.Insn.offset in
    match a.Insn.index with
    | None -> fun st -> rget st b + off
    | Some ix ->
      let ix = vreg ix in
      let s = a.Insn.scale in
      fun st -> rget st b + (rget st ix * s) + off
  in
  let aready (a : Insn.addr) =
    let b = vreg a.Insn.base in
    match a.Insn.index with
    | None -> fun st -> tget st b
    | Some ix ->
      let ix = vreg ix in
      fun st -> fmax (tget st b) (tget st ix)
  in

  (* The body of one micro-op: the instruction's semantics with every
     operand pre-resolved.  [next] is the fall-through successor; [rf]
     the early-exit refund applied when this micro-op leaves its block
     mid-way (deopt bailout paths). *)
  let body i ~next ~rf (k : Insn.kind) : uop =
    let bpc = base + i in
    match k with
    | Insn.Label _ | Insn.Checkpoint _ ->
      assert false (* pseudo: never emitted *)
    | Insn.Nop -> fun _ -> next
    | Insn.Mov (d, Insn.Reg r) ->
      let d = vreg d and r = vreg r in
      fun st ->
        let t = Cpu.time_alu st.cpu ~ready:(tget st r) in
        rset st d (rget st r);
        tset st d t;
        next
    | Insn.Mov (d, Insn.Imm v) ->
      let d = vreg d in
      fun st ->
        let t = Cpu.time_alu st.cpu ~ready:0.0 in
        rset st d v;
        tset st d t;
        next
    | Insn.Ldr (d, a) -> (
      (* Specialized on addressing mode so the hot base+offset form
         pays no effective-address closure calls. *)
      let d = vreg d in
      match a.Insn.index with
      | None ->
        let b = vreg a.Insn.base and off = a.Insn.offset in
        fun st ->
          let ea = rget st b + off in
          let t = Cpu.time_load st.cpu ~ready:(tget st b) ~addr:ea in
          rset st d (Array.unsafe_get st.mem (mem_index st name ea));
          tset st d t;
          next
      | Some _ ->
        let ea = eff a and rdy = aready a in
        fun st ->
          let ea = ea st in
          let t = Cpu.time_load st.cpu ~ready:(rdy st) ~addr:ea in
          rset st d (Array.unsafe_get st.mem (mem_index st name ea));
          tset st d t;
          next)
    | Insn.Str (a, s) -> (
      let s = vreg s in
      match a.Insn.index with
      | None ->
        let b = vreg a.Insn.base and off = a.Insn.offset in
        fun st ->
          let ea = rget st b + off in
          let ready = fmax (tget st b) (tget st s) in
          ignore (Cpu.time_store st.cpu ~ready ~addr:ea);
          Array.unsafe_set st.mem (mem_index st name ea) (rget st s);
          next
      | Some _ ->
        let ea = eff a and rdy = aready a in
        fun st ->
          let ea = ea st in
          let ready = fmax (rdy st) (tget st s) in
          ignore (Cpu.time_store st.cpu ~ready ~addr:ea);
          Array.unsafe_set st.mem (mem_index st name ea) (rget st s);
          next)
    | Insn.Ldr_f (d, a) ->
      let d = vfreg d in
      let ea = eff a and rdy = aready a in
      fun st ->
        let ea = ea st in
        let t = Cpu.time_load st.cpu ~ready:(rdy st) ~addr:ea in
        let i0 = mem_index st name ea in
        let i1 = mem_index2 st name ea i0 in
        let lo = Int64.of_int (st.mem.(i0) land 0xFFFFFFFF) in
        let hi = Int64.of_int (st.mem.(i1) land 0xFFFFFFFF) in
        st.fregs.(d) <-
          Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32));
        st.fr.(d) <- t;
        next
    | Insn.Str_f (a, s) ->
      let s = vfreg s in
      let ea = eff a and rdy = aready a in
      fun st ->
        let ea = ea st in
        let ready = fmax (rdy st) st.fr.(s) in
        ignore (Cpu.time_store st.cpu ~ready ~addr:ea);
        let bits = Int64.bits_of_float st.fregs.(s) in
        let i0 = mem_index st name ea in
        let i1 = mem_index2 st name ea i0 in
        st.mem.(i0) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
        st.mem.(i1) <- Int64.to_int (Int64.shift_right_logical bits 32);
        next
    | Insn.Alu { op; dst; src; rhs; set_flags } -> (
      let cls =
        match op with
        | Insn.Mul -> Cpu.C_mul
        | Insn.Sdiv | Insn.Smod -> Cpu.C_div
        | _ -> Cpu.C_alu
      in
      (* Flag-free single-cycle forms take [Cpu.time_alu], which needs
         no latency lookup; everything else shares a generic body.  Both
         capture the operator at decode time. *)
      let dst = vreg dst and src = vreg src in
      match (rhs, set_flags) with
      | Insn.Imm v, false when cls = Cpu.C_alu ->
        fun st ->
          let a = rget st src in
          let t = Cpu.time_alu st.cpu ~ready:(tget st src) in
          rset st dst (sext32 (alu_raw op a v));
          tset st dst t;
          next
      | Insn.Reg r, false when cls = Cpu.C_alu ->
        let r = vreg r in
        fun st ->
          let a = rget st src and b = rget st r in
          let t = Cpu.time_alu st.cpu ~ready:(fmax (tget st src) (tget st r)) in
          rset st dst (sext32 (alu_raw op a b));
          tset st dst t;
          next
      | Insn.Imm v, _ ->
        fun st ->
          let a = st.regs.(src) in
          let t = Cpu.time_cls st.cpu ~cls ~ready:st.rr.(src) in
          let raw = alu_raw op a v in
          if set_flags then set_alu_flags st op a v raw;
          st.regs.(dst) <- sext32 raw;
          st.rr.(dst) <- t;
          if set_flags then st.clk.Cpu.flags_ready <- t;
          next
      | Insn.Reg r, _ ->
        fun st ->
          let a = st.regs.(src) and b = st.regs.(r) in
          let ready = fmax st.rr.(src) st.rr.(r) in
          let t = Cpu.time_cls st.cpu ~cls ~ready in
          let raw = alu_raw op a b in
          if set_flags then set_alu_flags st op a b raw;
          st.regs.(dst) <- sext32 raw;
          st.rr.(dst) <- t;
          if set_flags then st.clk.Cpu.flags_ready <- t;
          next)
    | Insn.Alu_mem { op; dst; src; mem = a } ->
      let ea = eff a and rdy = aready a in
      fun st ->
        let ea = ea st in
        let ready = fmax st.rr.(src) (rdy st) in
        let t = Cpu.time_load st.cpu ~ready ~addr:ea in
        let b = st.mem.(mem_index st name ea) in
        let av = st.regs.(src) in
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
            fault "%s: shift with memory operand" name
        in
        st.regs.(dst) <- sext32 raw;
        st.rr.(dst) <- t +. 1.0;
        next
    | Insn.Cmp (a, Insn.Imm v) ->
      let a = vreg a in
      fun st ->
        let av = rget st a in
        let t = Cpu.time_alu st.cpu ~ready:(tget st a) in
        set_add_sub_flags st av v (av - v) true;
        st.clk.Cpu.flags_ready <- t;
        next
    | Insn.Cmp (a, Insn.Reg r) ->
      let a = vreg a and r = vreg r in
      fun st ->
        let av = rget st a and bv = rget st r in
        let t = Cpu.time_alu st.cpu ~ready:(fmax (tget st a) (tget st r)) in
        set_add_sub_flags st av bv (av - bv) true;
        st.clk.Cpu.flags_ready <- t;
        next
    | Insn.Cmp_mem (a, m) ->
      let ea = eff m and rdy = aready m in
      fun st ->
        let eav = ea st in
        let ready = fmax st.rr.(a) (rdy st) in
        let t = Cpu.time_load st.cpu ~ready ~addr:eav in
        let bv = st.mem.(mem_index st name eav) in
        let av = st.regs.(a) in
        set_add_sub_flags st av bv (av - bv) true;
        st.clk.Cpu.flags_ready <- t +. 1.0;
        next
    | Insn.Tst (a, Insn.Imm v) ->
      let a = vreg a in
      fun st ->
        let av = rget st a in
        let t = Cpu.time_alu st.cpu ~ready:(tget st a) in
        set_logic_flags st (av land v);
        st.clk.Cpu.flags_ready <- t;
        next
    | Insn.Tst (a, Insn.Reg r) ->
      let a = vreg a and r = vreg r in
      fun st ->
        let av = rget st a and bv = rget st r in
        let t = Cpu.time_alu st.cpu ~ready:(fmax (tget st a) (tget st r)) in
        set_logic_flags st (av land bv);
        st.clk.Cpu.flags_ready <- t;
        next
    | Insn.Fmov (d, s) ->
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_falu ~ready:st.fr.(s) in
        st.fregs.(d) <- st.fregs.(s);
        st.fr.(d) <- t;
        next
    | Insn.Fmov_imm (d, v) ->
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_falu ~ready:0.0 in
        st.fregs.(d) <- v;
        st.fr.(d) <- t;
        next
    | Insn.Falu { op; dst; a; b } ->
      let cls =
        match op with
        | Insn.Fadd | Insn.Fsub -> Cpu.C_falu
        | Insn.Fmul -> Cpu.C_fmul
        | Insn.Fdiv -> Cpu.C_fdiv
      in
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls ~ready:(fmax st.fr.(a) st.fr.(b)) in
        let av = st.fregs.(a) and bv = st.fregs.(b) in
        st.fregs.(dst) <-
          (match op with
          | Insn.Fadd -> av +. bv
          | Insn.Fsub -> av -. bv
          | Insn.Fmul -> av *. bv
          | Insn.Fdiv -> av /. bv);
        st.fr.(dst) <- t;
        next
    | Insn.Fcmp (a, b) ->
      fun st ->
        let t =
          Cpu.time_cls st.cpu ~cls:Cpu.C_falu ~ready:(fmax st.fr.(a) st.fr.(b))
        in
        let av = st.fregs.(a) and bv = st.fregs.(b) in
        if Float.is_nan av || Float.is_nan bv then begin
          st.fz <- false;
          st.fn <- false;
          st.fv <- true;
          st.funord <- true
        end
        else begin
          st.fz <- av = bv;
          st.fn <- av < bv;
          st.fv <- false;
          st.fc <- av >= bv;
          st.funord <- false
        end;
        st.clk.Cpu.flags_ready <- t;
        next
    | Insn.Scvtf (d, s) ->
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_fcvt ~ready:st.rr.(s) in
        st.fregs.(d) <- float_of_int st.regs.(s);
        st.fr.(d) <- t;
        next
    | Insn.Fcvtzs (d, s) ->
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_fcvt ~ready:st.fr.(s) in
        let v = st.fregs.(s) in
        st.regs.(d) <- (if Float.is_nan v then 0 else sext32 (int_of_float v));
        st.rr.(d) <- t;
        next
    | Insn.B l ->
      let tgt = utarget l in
      fun st ->
        ignore (Cpu.time_branch st.cpu ~pc:bpc ~ready:0.0 ~taken:true);
        tgt
    | Insn.Bcond (c, l) ->
      let tgt = utarget l in
      let cond = cond_fn c in
      fun st ->
        let taken = cond st in
        ignore
          (Cpu.time_branch st.cpu ~pc:bpc ~ready:st.clk.Cpu.flags_ready ~taken);
        if taken then tgt else next
    | Insn.Deopt_if (c, dp) ->
      let point = deopts.(dp) in
      let reason = point.Code.reason in
      let cond = cond_fn c in
      fun st ->
        let taken = cond st in
        ignore
          (Cpu.time_branch st.cpu ~pc:bpc ~ready:st.clk.Cpu.flags_ready ~taken);
        if taken then begin
          st.counters.Perf.deopt_events <- st.counters.Perf.deopt_events + 1;
          add st rf;
          st.outcome <-
            Deopt
              {
                deopt_id = dp;
                reason;
                snapshot = take_snapshot st;
                via_smi_ext = false;
              };
          -1
        end
        else next
    | Insn.Js_ldr_smi { dst; mem = a; deopt } ->
      (* Fused load + Not-a-SMI check + untagging shift (Fig 12). *)
      let dst = vreg dst in
      let ea = eff a and rdy = aready a in
      let point = deopts.(deopt) in
      let reason = point.Code.reason in
      let rcode = reason_code reason in
      fun st ->
        let ea = ea st in
        let t = Cpu.time_load st.cpu ~ready:(rdy st) ~addr:ea in
        let t = t +. st.cpu.Cpu.cfg.Cpu.smi_load_extra in
        let w = st.mem.(mem_index st name ea) in
        if w land 1 <> 0 then begin
          (* Check failed: write REG_PC / REG_RE; commit triggers the
             bailout through the handler at REG_BA. *)
          st.regs.(reg_pc) <- bpc;
          st.regs.(reg_re) <- rcode;
          st.counters.Perf.deopt_events <- st.counters.Perf.deopt_events + 1;
          if st.regs.(reg_ba) = 0 then
            fault "%s: jsldrsmi bailout with REG_BA unset" name;
          add st rf;
          st.outcome <-
            Deopt
              {
                deopt_id = deopt;
                reason;
                snapshot = take_snapshot st;
                via_smi_ext = true;
              };
          -1
        end
        else begin
          rset st dst (w asr 1);
          tset st dst t;
          next
        end
    | Insn.Js_chk_map { mem = a; expected; deopt } ->
      (* Future-work fused map check: load + compare in the load unit;
         branch-free bailout like jsldrsmi. *)
      let ea = eff a and rdy = aready a in
      let point = deopts.(deopt) in
      let reason = point.Code.reason in
      let rcode = reason_code reason in
      fun st ->
        let ea = ea st in
        ignore (Cpu.time_load st.cpu ~ready:(rdy st) ~addr:ea);
        let w = st.mem.(mem_index st name ea) in
        if w <> expected then begin
          st.regs.(reg_pc) <- bpc;
          st.regs.(reg_re) <- rcode;
          st.counters.Perf.deopt_events <- st.counters.Perf.deopt_events + 1;
          if st.regs.(reg_ba) = 0 then
            fault "%s: jschkmap bailout with REG_BA unset" name;
          add st rf;
          st.outcome <-
            Deopt
              {
                deopt_id = deopt;
                reason;
                snapshot = take_snapshot st;
                via_smi_ext = true;
              };
          -1
        end
        else next
    | Insn.Call (tgt, argc) ->
      (* All registers are caller-saved; args in r0..r(argc-1).  The
         argument window is copied into a per-activation scratch buffer
         (valid only for the duration of the call) instead of a fresh
         [Array.sub] per call. *)
      let argc =
        if argc < 0 || argc > Insn.num_gp_regs then
          fault "%s: call with %d arguments" name argc
        else argc
      in
      fun st ->
        let ready = ref st.clk.Cpu.flags_ready in
        for i = 0 to argc - 1 do
          if tget st i > !ready then ready := tget st i
        done;
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_call ~ready:!ready in
        (* Synchronize dispatch with the call. *)
        if t > st.clk.Cpu.now then st.clk.Cpu.now <- t;
        let args_view = scratch_buf st argc in
        Array.blit st.regs 0 args_view 0 argc;
        let res =
          match tgt with
          | Insn.Builtin b -> st.host.call_builtin b args_view
          | Insn.Js_code f -> st.host.call_js f args_view
        in
        (* A nested run re-targets the PC sampler; restore our
           attribution (the direct engine does this per instruction via
           Cpu.sample, we do it once here and once at run entry). *)
        st.cpu.Cpu.cur_code <- code_id;
        st.regs.(0) <- res;
        let after = fmax st.clk.Cpu.now t in
        st.rr.(0) <- after;
        for i = 1 to Insn.num_gp_regs - 1 do
          if tget st i > after then tset st i after
        done;
        next
    | Insn.Ret ->
      fun st ->
        ignore (Cpu.time_branch st.cpu ~pc:bpc ~ready:st.rr.(0) ~taken:true);
        st.outcome <- Done st.regs.(0);
        -1
    | Insn.Spill (slot, s) ->
      fun st ->
        ignore (Cpu.time_cls st.cpu ~cls:Cpu.C_store ~ready:st.rr.(s));
        st.slots.(slot) <- st.regs.(s);
        next
    | Insn.Reload (d, slot) ->
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_load ~ready:0.0 in
        st.regs.(d) <- st.slots.(slot);
        st.rr.(d) <- t +. 2.0 (* L1-hit reload *);
        next
    | Insn.Spill_f (slot, s) ->
      fun st ->
        ignore (Cpu.time_cls st.cpu ~cls:Cpu.C_store ~ready:st.fr.(s));
        st.fslots.(slot) <- st.fregs.(s);
        next
    | Insn.Reload_f (d, slot) ->
      fun st ->
        let t = Cpu.time_cls st.cpu ~cls:Cpu.C_load ~ready:0.0 in
        st.fregs.(d) <- st.fslots.(slot);
        st.fr.(d) <- t +. 2.0;
        next
    | Insn.Msr (sp, s) ->
      let idx =
        match sp with
        | Insn.Reg_ba -> reg_ba
        | Insn.Reg_pc -> reg_pc
        | Insn.Reg_re -> reg_re
      in
      let s = vreg s in
      fun st ->
        let t = Cpu.time_alu st.cpu ~ready:(tget st s) in
        rset st idx (rget st s);
        tset st idx t;
        next
    | Insn.Mrs (d, sp) ->
      let idx =
        match sp with
        | Insn.Reg_ba -> reg_ba
        | Insn.Reg_pc -> reg_pc
        | Insn.Reg_re -> reg_re
      in
      let d = vreg d in
      fun st ->
        let t = Cpu.time_alu st.cpu ~ready:(tget st idx) in
        rset st d (rget st idx);
        tset st d t;
        next
  in

  (* One trailing sentinel slot: reachable only by falling through the
     last instruction (or branching to a trailing pseudo), where the
     direct engine faults with the same message.  Its side-array
     entries (-1) skip the whole prologue, so no state is touched
     before the fault fires — same as the direct engine's bounds
     check. *)
  let sentinel (_ : st) : int = fault "%s: fell off code end" name in
  let uops = Array.make (n_uops + 1) sentinel in
  let addrs = Array.make (n_uops + 1) (-1) in
  let pcs = Array.make (n_uops + 1) 0 in
  let blocks = Array.make (n_uops + 1) (-1) in
  for u = 0 to n_uops - 1 do
    let i = insn_of_uop.(u) in
    pcs.(u) <- i;
    (* Fetch is dynamic at control-flow block leaders (the predecessor
       is unknown: branch, call return, or a nested activation may
       have moved the fetch line).  Mid-block, the predecessor is
       always the previous micro-op, so a same-line fetch is provably
       the [last_iline] no-op and is elided at decode time. *)
    if leader.(u) || uline u <> uline (u - 1) then addrs.(u) <- base + i;
    if leader.(u) then blocks.(u) <- block_of_uop.(u);
    uops.(u) <- body i ~next:(u + 1) ~rf:refund_at.(u) (ku u)
  done;
  {
    p_name = name;
    p_code_id = code_id;
    p_uops = uops;
    p_addrs = addrs;
    p_pcs = pcs;
    p_blocks = blocks;
    p_deltas;
    p_faults = refund_at;
    p_stats = { st_uops = n_uops; st_blocks = n_blocks };
  }

let get (code : Code.t) =
  match code.Code.decode_cache with
  | Decoded p -> p
  | _ ->
    let p = compile code in
    code.Code.decode_cache <- Decoded p;
    if !Trace.on then begin
      let st = p.p_stats in
      Trace.instant_wall ~cat:"machine"
        ~arg:
          (Printf.sprintf "uops=%d blocks=%d" st.st_uops st.st_blocks)
        ("decode:" ^ code.Code.name)
    end;
    p

let warm code = ignore (get code)
let stats p = p.p_stats

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let shared_no_scratch : int array array = [||]

let run (cpu : Cpu.t) ~host ~(code : Code.t) ~args =
  let p = get code in
  let regs = Array.make (Insn.num_gp_regs + 3) 0 in
  let fregs = Array.make Insn.num_fp_regs 0.0 in
  let slots = Array.make (max 1 code.Code.gp_slots) 0 in
  let fslots = Array.make (max 1 code.Code.fp_slots) 0.0 in
  let n_args = min (Array.length args) Insn.num_arg_regs in
  Array.blit args 0 regs 0 n_args;
  let st =
    {
      cpu;
      clk = cpu.Cpu.clk;
      counters = cpu.Cpu.counters;
      fstats = cpu.Cpu.fstats;
      regs;
      fregs;
      slots;
      fslots;
      rr = cpu.Cpu.reg_ready;
      fr = cpu.Cpu.freg_ready;
      mem = host.memory;
      host;
      scratch = shared_no_scratch;
      fz = false;
      fn = false;
      fv = false;
      fc = false;
      funord = false;
      outcome = Done 0;
    }
  in
  let uops = p.p_uops in
  let addrs = p.p_addrs in
  let pcs = p.p_pcs in
  let blocks = p.p_blocks and deltas = p.p_deltas and faults = p.p_faults in
  let clk = st.clk in
  cpu.Cpu.cur_code <- p.p_code_id;
  (* Every next-index a micro-op can return is within [0, uops]
     (straight-line successors and decode-resolved branch targets), and
     the last slot holds the fell-off-code-end sentinel, so the loop
     indexes the arrays unchecked.

     Per-slot prologue: at an accounting-block leader, check watchdog
     fuel and take the block's batched counter charge; then the fetch
     (elided at decode time when the line provably cannot have
     changed), the sampler attribution pc, and the indirect call.
     Integer counters (jit_instructions, check accounting, retirement
     counts) are inside the batched charge — the direct engine's
     per-instruction order is recovered because integer adds commute
     and all float work stays per-instruction inside the micro-ops.

     Every loop in the code crosses a block leader (each back-edge
     targets one), so the fuel check still runs at least once per
     iteration; a mid-block exhaustion is detected at the next block
     entry, bounding overshoot by one straight-line block.

     A [Machine_fault] escaping a micro-op has already charged its own
     retirement (issue precedes the memory access, as in the direct
     engine) but not its block suffix: the handler applies the
     faulting slot's precomputed refund, restoring exact counter
     agreement, and re-raises. *)
  let i = ref 0 in
  (try
     match cpu.Cpu.sampler with
     | Some _ ->
       while !i >= 0 do
         let k = !i in
         let b = Array.unsafe_get blocks k in
         if b >= 0 then begin
           if clk.Cpu.now > clk.Cpu.fuel_limit then
             Cpu.watchdog_trip clk ~what:code.Code.name;
           add st (Array.unsafe_get deltas b)
         end;
         let addr = Array.unsafe_get addrs k in
         if addr >= 0 then Cpu.fetch_line cpu ~addr ~line:(addr lsr 4);
         cpu.Cpu.cur_pc <- Array.unsafe_get pcs k;
         i := (Array.unsafe_get uops k) st
       done
     | None ->
       (* Without a PC sampler the attribution PC is never read
          ([Cpu]'s timing paths only consult it to tick the sampler),
          so the per-slot [cur_pc] update is dead and skipped. *)
       while !i >= 0 do
         let k = !i in
         let b = Array.unsafe_get blocks k in
         if b >= 0 then begin
           if clk.Cpu.now > clk.Cpu.fuel_limit then
             Cpu.watchdog_trip clk ~what:code.Code.name;
           add st (Array.unsafe_get deltas b)
         end;
         let addr = Array.unsafe_get addrs k in
         if addr >= 0 then Cpu.fetch_line cpu ~addr ~line:(addr lsr 4);
         i := (Array.unsafe_get uops k) st
       done
   with Machine_fault _ as e ->
     add st (Array.unsafe_get faults !i);
     raise e);
  st.outcome
