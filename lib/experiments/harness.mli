(** Benchmark measurement harness.

    Runs one benchmark under one engine configuration for N iterations
    and collects everything the paper's figures need: per-iteration
    cycle counts, hardware counters, ground-truth and window-heuristic
    PC-sample attribution (Section III-A), deoptimization events, and a
    result checksum for correctness validation.

    [calibrate_removable] implements the paper's leftover-check
    procedure (Section III-B2): check groups whose deoptimizations
    actually fire in a normal run must stay; everything else can be
    short-circuited without altering behavior. *)

type result = {
  bench : Workloads.Suite.benchmark;
  arch : Arch.t;
  iterations : int;
  checksum : float;
  error : string option;            (** machine fault / JS error, if any *)
  iter_cycles : float array;        (** per-iteration elapsed cycles *)
  iter_deopts : int array;          (** deopt events per iteration *)
  counters : Perf.counters;         (** totals over the whole run *)
  total_cycles : float;
  jit_samples : int;                (** PC samples landing in JIT code *)
  total_samples : int;
  window_check_samples : int array; (** per check group (paper heuristic) *)
  truth_check_samples : int array;  (** per check group (provenance) *)
  static_checks : int;              (** static check instructions, final codes *)
  static_insns : int;
  compiles : int;
  gc_runs : int;
}

val run :
  ?iterations:int -> config:Engine.config ->
  Workloads.Suite.benchmark -> result
(** Default 300 iterations.  Simulation-level faults (machine faults,
    JS errors, divergences) are reported in [error]; the only exception
    that escapes is [Support.Fault.Fault] — watchdog trips and injected
    faults are containment events owned by the experiment layer. *)

val calibrate_removable :
  ?iterations:int -> config:Engine.config ->
  Workloads.Suite.benchmark -> Insn.check_group list * Insn.check_group list
(** [(removable, leftover)] — groups safe to remove vs groups whose
    checks fired during a normal run.  Raises [Support.Fault.Fault] on
    watchdog trip, like {!run}. *)

val max_cycles_per_call : unit -> float
(** Watchdog cycle budget per engine entry (setup or one benchmark
    call): [VSPEC_MAX_CYCLES] if set ("0"/"off"/"none" disables),
    default 2e8. *)

val drive : Engine.t -> calls:int -> unit
(** [drive eng ~calls] runs the script's top level, then calls [bench]
    [calls] times, arming a fresh {!max_cycles_per_call} budget before
    each entry (the policy {!run} uses).  For figure drivers and
    calibration that need the warmed engine rather than a {!result}:
    a runaway code object raises [Support.Fault.Fault (Runaway _)];
    any other exception propagates unchanged. *)

val overhead_window : result -> float
(** Fraction of JIT-code samples attributed to checks by the window
    heuristic. *)

val overhead_truth : result -> float
val checks_per_100 : result -> float
(** Dynamic check instructions per 100 retired JIT instructions. *)

val group_window_share : result -> Insn.check_group -> float
val group_freq_per_100 : result -> Insn.check_group -> float

val steady_state_cycles : result -> float
(** Mean cycles per iteration over the last third of the run. *)

val check_window_map : Code.t -> int array
(** Per-instruction check-group index (-1 = main line) under the arch
    window heuristic; depends only on the code object, so callers
    attributing several sample batches against one code object should
    compute it once and pass it to {!attribute_code}. *)

val attribute_code :
  code:Code.t -> samples:int array -> window_acc:int array ->
  truth_acc:int array -> int
(** The Section III-A estimator in isolation: attributes per-instruction
    PC samples to check groups via the arch window heuristic
    ([window_acc]) and via instruction provenance ([truth_acc]); returns
    the total samples on the code object.  Exposed for testing.
    Equivalent to {!attribute_code_with} over a fresh
    [check_window_map]. *)

val attribute_code_with :
  window_map:int array -> code:Code.t -> samples:int array ->
  window_acc:int array -> truth_acc:int array -> int
(** Attribution against a precomputed {!check_window_map}, so the
    per-code back-walk is not redone per sample batch. *)
