(** Shared experiment plumbing: engine-config variants, the process-wide
    result caches (figures share the expensive "normal run" of every
    benchmark), and the check-removal calibration cache.

    All memo tables are domain-safe with single-flight semantics: when
    a figure fans its rows out across a {!Support.Pool}, each distinct
    simulation runs exactly once no matter how many domains ask for
    it.  Results are additionally persisted to an on-disk cache
    ([_build/.vspec-cache/] or [VSPEC_CACHE_DIR]; set to [off] to
    disable) keyed by a digest of benchmark source + full engine config
    + iteration count + a cache-format version, so re-runs skip
    already-simulated cells across processes.

    Fault containment: every cell computation runs under
    {!Support.Fault.guard} — transient (injected) faults are retried
    up to [VSPEC_RETRIES] times; permanent failures land in the
    {!Support.Fault.Ledger} and in a process-wide negative cache so
    later reads of the same cell fail fast.  Corrupt disk-cache entries
    are quarantined as [<digest>.corrupt]; an unusable cache directory
    degrades to cache-off with a single warning. *)

type variant =
  | V_normal
  | V_no_checks of Insn.check_group list  (** groups short-circuited *)
  | V_no_branches
  | V_interp_only
  | V_baseline  (** interpreter + SparkPlug-style baseline tier *)
  | V_smi_ext
  | V_trust_elements
  | V_turboprop
  | V_fuse_maps  (** extended ISA + fused map checks (Section VII) *)

val variant_name : variant -> string

val config_for :
  ?cpu:Cpu.config -> arch:Arch.t -> seed:int -> variant -> Engine.config

val iterations : unit -> int
(** Default 200; override with VSPEC_ITERS (an integer >= 1). *)

val repetitions : unit -> int
(** Default 5 (paper: 30); override with VSPEC_REPS (an integer >= 2:
    the statistical figures' Welch t-test needs two samples). *)

val run_result :
  ?cpu:Cpu.config -> ?iterations:int -> arch:Arch.t -> seed:int ->
  variant -> Workloads.Suite.benchmark ->
  (Harness.result, Support.Fault.error) result
(** Memoized {!Harness.run}: domain-safe, single-flight, disk-backed,
    fault-contained.  [Error] means the cell permanently failed (after
    transient retries); the failure is already ledgered and
    negative-cached, so repeated calls return the same [Error] without
    re-simulating. *)

val run_cached :
  ?cpu:Cpu.config -> ?iterations:int -> arch:Arch.t -> seed:int ->
  variant -> Workloads.Suite.benchmark -> Harness.result
(** {!run_result} for callers that handle failure by exception:
    raises [Support.Fault.Fault] on a failed cell. *)

val removable_groups_result :
  arch:Arch.t -> Workloads.Suite.benchmark ->
  (Insn.check_group list * Insn.check_group list, Support.Fault.error) result
(** Memoized calibration: (removable, leftover/fired), fault-contained
    like {!run_result}. *)

val removable_groups :
  arch:Arch.t -> Workloads.Suite.benchmark ->
  Insn.check_group list * Insn.check_group list
(** Raising variant of {!removable_groups_result}. *)

val reference_checksum : Workloads.Suite.benchmark -> float
(** Interpreter-only checksum of a 3-iteration run.  The opt-in
    [VSPEC_VERIFY] pass checks each semantics-preserving cell against an
    interpreter-only run of the cell's own iteration count instead, since
    stateful benchmarks' checksums depend on it. *)

val verify_enabled : unit -> bool
(** Whether [VSPEC_VERIFY] is on (default off); read from the
    environment on each call. *)

val degraded : string -> (unit -> unit) -> unit
(** [degraded name f] runs [f]; a [Support.Fault.Fault] escaping it is
    printed as an inline degradation marker and ledgered under [name]
    instead of killing the process.  For figure drivers that touch the
    engine directly. *)

val resolve_cache_dir : string -> string option * string option
(** [(usable_dir, warning)] — create the directory (and parents) and
    probe writability.  [None, Some w] means the cache must be
    disabled; exposed for tests. *)

val suite : unit -> Workloads.Suite.benchmark list
(** The benchmark list, restricted by VSPEC_BENCH (comma-separated ids,
    surrounding whitespace ignored) if set.  Raises [Support.Knob.Invalid]
    naming any unknown id. *)

val rows : ('a -> 'b) -> 'a list -> ('b, Support.Fault.error) result list
(** The figure row fan-out: [rows row xs] computes [row x] for every
    [x] on the {!Support.Pool}, results in [xs] order.  [row] must be
    pure: it reads cells only through the memoized runners above and
    leaves accumulators to the caller, so the results do not depend on
    the schedule.  A row that raises [Support.Fault.Fault err] (a cell
    that failed permanently, already recorded in the ledger by the
    cell runner) is [Error err]; any other exception propagates. *)

val rows_by :
  'k list -> 'a list -> ('k -> 'a -> 'b) ->
  ('k * ('a * ('b, Support.Fault.error) result) list) list
(** [rows_by keys xs row] computes one row per (key, x) pair in one
    {!rows} fan-out and regroups the results per key, keys in [keys]
    order and [xs] order within each group. *)

val cache_stats : unit -> int * int
(** [(simulations, disk_hits)] since start/last {!clear_memo}: fresh
    simulations actually executed by this process vs results served
    from the on-disk cache. *)

val clear_memo : unit -> unit
(** Drop all in-memory memo entries, the negative failure cache, and
    reset {!cache_stats} (the disk cache is untouched).  For tests. *)
