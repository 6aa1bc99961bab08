(** CPU timing models (the gem5-equivalent substrate).

    An interval-style model: instructions dispatch at a bounded width,
    start when their operands are ready (out-of-order cores may run
    ahead of the dispatch pointer up to a ROB-slack window; in-order
    cores stall), and complete after a class latency — loads consult the
    cache hierarchy, branches the gshare predictor.  This reproduces the
    effects the paper leans on: rarely-taken predicted branches are
    nearly free, condition computations serialize with their consumers,
    RISC vs CISC instruction-count differences translate into frontend
    pressure, and the fused [jsldrsmi] removes ALU latency from the
    critical path (its untagging shift happens inside the load unit,
    Fig 12). *)

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
  width : int;                (** dispatch width, instructions / cycle *)
  rob_slack : float;          (** O3 lookahead window, cycles *)
  mispredict_penalty : float;
  taken_bubble : float;       (** fetch-redirect bubble of a taken branch *)
  lat_alu : float;
  lat_mul : float;
  lat_div : float;
  lat_falu : float;
  lat_fmul : float;
  lat_fdiv : float;
  lat_fcvt : float;
  lat_call : float;
  smi_load_extra : float;     (** extra latency of [jsldrsmi] over [ldr] *)
  small_caches : bool;
}

(** {1 Named configurations} *)

val fast_x64 : config
(** "Real hardware" tier for the characterization experiments: a
    Xeon-class wide O3 core. *)

val fast_arm64 : config
(** Kunpeng-920-class O3 core, ARM64 latencies (FP add 2x int add, as
    the paper notes for Cortex-A76-class cores). *)

val inorder_a55 : config
val inorder_hpd : config
val o3_exynos_big : config
val o3_kpg : config

val gem5_cpus : config list
(** The four cores used by the ISA-extension experiments (Fig 13/14). *)

val fast_for : Arch.t -> config

(** {1 Timing state} *)

(** Hot timing scalars, kept in an all-float record so they are stored
    flat: mutating [now]/[high]/[flags_ready] is a plain double store
    with no boxing — these fields are written for every simulated
    instruction.  The trailing fields are copies of the hot [config]
    floats, readable with a single load in the issue paths. *)
type clock = {
  mutable now : float;          (** dispatch pointer, cycles *)
  mutable high : float;         (** max completion time = elapsed cycles *)
  mutable flags_ready : float;
  mutable fuel_limit : float;
      (** watchdog ceiling on [now]; the executors raise
          [Support.Fault.Fault (Runaway _)] when exceeded.  [infinity]
          (the default) disarms the watchdog. *)
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
  reg_ready : float array;      (** GP regs + specials *)
  freg_ready : float array;
  mutable last_iline : int;
  counters : Perf.counters;
  fstats : Perf.batching;
      (** block-batching coverage of the pre-decoded engine; stays
          all-zero under the direct interpreter.  Not part of digested
          results (see {!Perf.batching}). *)
  sampler : Perf.sampler option;
  mutable cur_code : int;   (** attribution target for the PC sampler *)
  mutable cur_pc : int;
}

val create : ?sampler:Perf.sampler -> config -> t
val reset : t -> unit
(** Clears timing state and counters but keeps cache/predictor warmth. *)

val cycles : t -> float

val arm_watchdog : t -> cycles:float -> unit
(** Set the watchdog fuel ceiling to [cycles] simulated cycles from the
    current dispatch point.  Both execution engines check it once per
    retired instruction and raise [Support.Fault.Fault (Runaway _)]
    when it is exceeded, so a non-terminating code object cannot hang
    its domain.  Arming is cheap; re-arm per benchmark call. *)

val disarm_watchdog : t -> unit

val watchdog_trip : clock -> what:string -> 'a
(** Shared watchdog-expiry path for both execution engines: emits a
    ["watchdog:fire"] trace instant (when tracing is on) and raises
    [Support.Fault.Fault (Runaway _)].  Never returns. *)

(** {1 Per-instruction hooks (called by the executor)} *)

val fetch : t -> addr:int -> unit
(** Instruction-cache charge when the fetch line changes. *)

val fetch_line : t -> addr:int -> line:int -> unit
(** [fetch] with the fetch line ([addr lsr 4]) precomputed by the
    caller; behavior is identical. *)

val issue : t -> cls:insn_class -> ready:float -> float
(** Dispatch + execute one instruction whose operands are ready at
    [ready]; returns its completion time.  Counts it as retired. *)

val issue_load : t -> ready:float -> addr:int -> float
val issue_store : t -> ready:float -> addr:int -> float

val issue_branch : t -> pc:int -> ready:float -> taken:bool -> float
(** Returns completion; applies misprediction or taken-branch frontend
    penalties. *)

(** {1 Timing paths}

    [issue]* minus the static retirement counters: each [time_*] does
    exactly the float work, cache and predictor access and sampler ticks
    of its [issue]* counterpart, and bumps only the dynamic counters
    (stall cycles, taken branches, mispredicts).  [issue]* is "count,
    then time"; the pre-decoded executor charges the static counts per
    basic block and calls these, so both engines share one timing
    model.  They are marked for inlining, which takes effect because
    the workspace builds without [-opaque]. *)

val time_cls : t -> cls:insn_class -> ready:float -> float
val time_alu : t -> ready:float -> float
(** [time_cls ~cls:C_alu], with the latency read from [clk]. *)

val time_load : t -> ready:float -> addr:int -> float
val time_store : t -> ready:float -> addr:int -> float
val time_branch : t -> pc:int -> ready:float -> taken:bool -> float

val charge : t -> cycles:float -> instructions:int -> code_id:int -> unit
(** Bulk cost of non-JIT execution (interpreter, builtins, GC): advances
    time, counts instructions, and lets the sampler attribute the region
    to [code_id]. *)

val sample : t -> code_id:int -> pc:int -> unit
(** Set the sampler's attribution target for the next issue (the
    sampler ticks at retirement, inside every timing path). *)
