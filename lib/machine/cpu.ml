type insn_class =
  | C_alu
  | C_mul
  | C_div
  | C_load
  | C_store
  | C_branch
  | C_falu
  | C_fmul
  | C_fdiv
  | C_fcvt
  | C_call
  | C_nop

type config = {
  cfg_name : string;
  inorder : bool;
  width : int;
  rob_slack : float;
  mispredict_penalty : float;
  taken_bubble : float;
  lat_alu : float;
  lat_mul : float;
  lat_div : float;
  lat_falu : float;
  lat_fmul : float;
  lat_fdiv : float;
  lat_fcvt : float;
  lat_call : float;
  smi_load_extra : float;
  small_caches : bool;
}

let fast_x64 =
  {
    cfg_name = "fast-x64";
    inorder = false;
    width = 4;
    rob_slack = 48.0;
    mispredict_penalty = 16.0;
    taken_bubble = 0.3;
    lat_alu = 1.0;
    lat_mul = 3.0;
    lat_div = 22.0;
    lat_falu = 3.0;
    lat_fmul = 4.0;
    lat_fdiv = 14.0;
    lat_fcvt = 4.0;
    lat_call = 3.0;
    smi_load_extra = 0.0;
    small_caches = false;
  }

let fast_arm64 =
  {
    cfg_name = "fast-arm64";
    inorder = false;
    width = 4;
    rob_slack = 32.0;
    mispredict_penalty = 14.0;
    taken_bubble = 0.35;
    lat_alu = 1.0;
    lat_mul = 4.0;
    lat_div = 20.0;
    lat_falu = 2.0;
    lat_fmul = 4.0;
    lat_fdiv = 13.0;
    lat_fcvt = 3.0;
    lat_call = 3.0;
    smi_load_extra = 0.0;
    small_caches = false;
  }

let inorder_a55 =
  {
    fast_arm64 with
    cfg_name = "InOrder-A55";
    inorder = true;
    width = 2;
    rob_slack = 0.0;
    mispredict_penalty = 8.0;
    taken_bubble = 1.0;
    lat_div = 24.0;
    small_caches = true;
  }

let inorder_hpd =
  {
    fast_arm64 with
    cfg_name = "InOrder-HPD";
    inorder = true;
    width = 3;
    rob_slack = 0.0;
    mispredict_penalty = 10.0;
    taken_bubble = 0.7;
    small_caches = false;
  }

let o3_exynos_big =
  {
    fast_arm64 with
    cfg_name = "O3-Exynos-big";
    width = 6;
    rob_slack = 56.0;
    mispredict_penalty = 16.0;
    taken_bubble = 0.25;
  }

let o3_kpg =
  {
    fast_arm64 with
    cfg_name = "O3-KPG";
    width = 4;
    rob_slack = 40.0;
    mispredict_penalty = 14.0;
  }

let gem5_cpus = [ inorder_a55; inorder_hpd; o3_exynos_big; o3_kpg ]

let fast_for = function
  | Arch.X64 -> fast_x64
  | Arch.Arm64 | Arch.Arm64_smi_ext -> fast_arm64

(* The hot timing scalars live in an all-float record: OCaml stores
   such records flat (no per-field box), so the per-instruction
   [now <- now +. _] updates are plain double stores instead of a
   minor-heap allocation each.  The hot read-only config floats are
   copied in so the issue paths read them with one load. *)
type clock = {
  mutable now : float;
  mutable high : float;
  mutable flags_ready : float;
  mutable fuel_limit : float;  (* watchdog ceiling on [now]; infinity = off *)
  inv_width : float;
  rob_slack : float;
  mispredict_penalty : float;
  taken_bubble : float;
  clk_lat_alu : float;
}

type t = {
  cfg : config;
  hier : Cache.hierarchy;
  bp : Predictor.t;
  clk : clock;
  reg_ready : float array;
  freg_ready : float array;
  mutable last_iline : int;
  counters : Perf.counters;
  fstats : Perf.batching;
  sampler : Perf.sampler option;
  mutable cur_code : int;   (* attribution target for the PC sampler *)
  mutable cur_pc : int;
}

let create ?sampler cfg =
  {
    cfg;
    hier =
      (if cfg.small_caches then Cache.small_hierarchy ()
       else Cache.default_hierarchy ());
    bp = Predictor.create ();
    clk =
      {
        now = 0.0;
        high = 0.0;
        flags_ready = 0.0;
        fuel_limit = infinity;
        inv_width = 1.0 /. float_of_int cfg.width;
        rob_slack = cfg.rob_slack;
        mispredict_penalty = cfg.mispredict_penalty;
        taken_bubble = cfg.taken_bubble;
        clk_lat_alu = cfg.lat_alu;
      };
    reg_ready = Array.make (Insn.num_gp_regs + 3) 0.0;
    freg_ready = Array.make Insn.num_fp_regs 0.0;
    last_iline = -1;
    counters = Perf.create_counters ();
    fstats = Perf.create_batching ();
    sampler;
    cur_code = Perf.runtime_code_id;
    cur_pc = 0;
  }

let reset t =
  t.clk.now <- 0.0;
  t.clk.high <- 0.0;
  Array.fill t.reg_ready 0 (Array.length t.reg_ready) 0.0;
  Array.fill t.freg_ready 0 (Array.length t.freg_ready) 0.0;
  t.clk.flags_ready <- 0.0;
  t.last_iline <- -1;
  Perf.reset_counters t.counters;
  Perf.reset_batching t.fstats

let cycles t = t.clk.high

(* Watchdog: the ceiling is an absolute point on the dispatch clock, so
   arming is a plain store and the engines' per-instruction check is a
   single float compare.  [reset] deliberately leaves it alone — it is
   enforcement policy, not timing state. *)
let arm_watchdog t ~cycles =
  t.clk.fuel_limit <- t.clk.now +. cycles;
  if !Trace.on then
    Trace.instant_at ~cat:"machine" ~ts:t.clk.high
      ~arg:(Printf.sprintf "fuel=%.0f" cycles)
      "watchdog:arm"

let disarm_watchdog t = t.clk.fuel_limit <- infinity

let watchdog_trip clk ~what =
  if !Trace.on then
    Trace.instant_at ~cat:"machine" ~ts:clk.high ~arg:what "watchdog:fire";
  Support.Fault.runaway ~what ~limit:clk.fuel_limit

let latency cfg = function
  | C_alu -> cfg.lat_alu
  | C_mul -> cfg.lat_mul
  | C_div -> cfg.lat_div
  | C_load -> 0.0 (* via cache *)
  | C_store -> 1.0
  | C_branch -> 1.0
  | C_falu -> cfg.lat_falu
  | C_fmul -> cfg.lat_fmul
  | C_fdiv -> cfg.lat_fdiv
  | C_fcvt -> cfg.lat_fcvt
  | C_call -> cfg.lat_call
  | C_nop -> 0.0

let sample t ~code_id ~pc =
  t.cur_code <- code_id;
  t.cur_pc <- pc

(* [fetch_line] lets callers that know the fetch line statically (the
   pre-decoded executor precomputes [addr lsr 4] per micro-op) skip the
   shift; [fetch] is the general entry point. *)
let[@inline] fetch_line t ~addr ~line =
  if line <> t.last_iline then begin
    t.last_iline <- line;
    let lat = Cache.inst_latency t.hier addr in
    if lat > 0 then begin
      let lat = float_of_int lat in
      t.clk.now <- t.clk.now +. lat;
      t.counters.frontend_stall <- t.counters.frontend_stall +. lat
    end
  end

let fetch t ~addr = fetch_line t ~addr ~line:(addr lsr 4)

(* Dispatch/start, shared by every timing path: advance the dispatch
   pointer and charge backend stalls.  Returns the start time of
   execution. *)
let[@inline] dispatch t ~ready =
  let c = t.clk in
  let d = c.now in
  c.now <- d +. c.inv_width;
  let start = if ready > d then ready else d in
  if t.cfg.inorder then begin
    if start > c.now then begin
      t.counters.backend_stall <- t.counters.backend_stall +. (start -. c.now);
      c.now <- start
    end
  end
  else begin
    let slack = c.rob_slack in
    if start -. d > slack then begin
      let push = start -. d -. slack in
      t.counters.backend_stall <- t.counters.backend_stall +. push;
      c.now <- c.now +. push
    end
  end;
  start

(* In-order retirement: an instruction retires when it has completed
   and everything before it has retired.  The PC sampler ticks across
   each instruction's retirement window, so long-latency instructions
   (e.g. cache-miss loads) absorb proportionally many samples — the
   behavior of interrupt-driven PC sampling the paper relies on. *)
let[@inline] finish t complete =
  let retire = if complete > t.clk.high then complete else t.clk.high in
  t.clk.high <- retire;
  (match t.sampler with
  | None -> ()
  | Some s -> Perf.sampler_tick s ~now:retire ~code_id:t.cur_code ~pc:t.cur_pc);
  complete

(* The timing paths: the whole issue arithmetic of one instruction,
   without the static retirement counters (instructions, loads, stores,
   branches).  The direct interpreter counts those per instruction in
   the [issue]* wrappers below; the pre-decoded engine charges them per
   basic block and calls these directly. *)
let[@inline] time_cls t ~cls ~ready =
  let start = dispatch t ~ready in
  finish t (start +. latency t.cfg cls)

let[@inline] time_alu t ~ready =
  let start = dispatch t ~ready in
  finish t (start +. t.clk.clk_lat_alu)

let[@inline] time_load t ~ready ~addr =
  let start = dispatch t ~ready in
  let lat = float_of_int (Cache.data_latency t.hier addr) in
  finish t (start +. lat)

let[@inline] time_store t ~ready ~addr =
  let start = dispatch t ~ready in
  ignore (Cache.access t.hier.Cache.l1d addr);
  finish t (start +. 1.0)

let[@inline] time_branch t ~pc ~ready ~taken =
  let start = dispatch t ~ready in
  let complete = start +. 1.0 in
  if taken then t.counters.taken_branches <- t.counters.taken_branches + 1;
  let correct = Predictor.predict_and_update t.bp ~pc ~taken in
  if not correct then begin
    t.counters.mispredicts <- t.counters.mispredicts + 1;
    let resume = complete +. t.clk.mispredict_penalty in
    if resume > t.clk.now then begin
      t.counters.frontend_stall <-
        t.counters.frontend_stall +. (resume -. t.clk.now);
      t.clk.now <- resume
    end
  end
  else if taken then begin
    t.clk.now <- t.clk.now +. t.clk.taken_bubble;
    t.counters.frontend_stall <- t.counters.frontend_stall +. t.clk.taken_bubble
  end;
  finish t complete

let issue t ~cls ~ready =
  t.counters.instructions <- t.counters.instructions + 1;
  time_cls t ~cls ~ready

let issue_load t ~ready ~addr =
  t.counters.instructions <- t.counters.instructions + 1;
  t.counters.loads <- t.counters.loads + 1;
  time_load t ~ready ~addr

let issue_store t ~ready ~addr =
  t.counters.instructions <- t.counters.instructions + 1;
  t.counters.stores <- t.counters.stores + 1;
  time_store t ~ready ~addr

let issue_branch t ~pc ~ready ~taken =
  t.counters.instructions <- t.counters.instructions + 1;
  t.counters.branches <- t.counters.branches + 1;
  time_branch t ~pc ~ready ~taken

let charge t ~cycles ~instructions ~code_id =
  let from = t.clk.now in
  t.clk.now <- t.clk.now +. cycles;
  if t.clk.now > t.clk.high then t.clk.high <- t.clk.now;
  t.counters.instructions <- t.counters.instructions + instructions;
  t.counters.runtime_instructions <-
    t.counters.runtime_instructions + instructions;
  match t.sampler with
  | None -> ()
  | Some s -> Perf.sampler_bulk s ~from ~until:t.clk.now ~code_id
