(** Job plans: drivers declare their full simulation cell set up front;
    the plan fans the cells out across a {!Support.Pool} of domains.

    Every cell is an independent, fully seeded, deterministic
    simulation, so execution order does not matter: a parallel plan
    only *warms* the single-flight memo caches in {!Common}; the driver
    body then reads the same caches sequentially and produces output
    bit-identical to a sequential run.

    Removal cells ([V_no_checks] of whatever calibration finds
    removable) depend on the calibration result for their (bench, arch)
    pair, so {!run} executes in two stages: first all required
    calibrations in parallel, then all remaining cells in parallel. *)

type cell

val cell :
  ?cpu:Cpu.config -> ?iters:int -> arch:Arch.t -> seed:int ->
  Common.variant -> Workloads.Suite.benchmark -> cell
(** One simulation with an explicit variant (maps to
    {!Common.run_cached}). *)

val removal_cell :
  ?cpu:Cpu.config -> ?iters:int -> arch:Arch.t -> seed:int ->
  Workloads.Suite.benchmark -> cell
(** A [V_no_checks] run of whatever {!Common.removable_groups} reports
    removable for this (bench, arch); schedules the calibration as a
    dependency stage. *)

val calibration_cell : arch:Arch.t -> Workloads.Suite.benchmark -> cell
(** Calibration only (for drivers that need the fired-group list but
    no removal run). *)

val run : ?jobs:int -> cell list -> unit
(** Execute the plan: calibration stage, then simulation stage, each
    fanned out over the pool ([jobs] defaults to
    {!Support.Pool.default_jobs}).  All results land in the {!Common}
    caches; nothing is returned.  Duplicate cells cost nothing (the
    memo tables single-flight them).

    Fault containment: a failing cell never aborts the plan — the
    fan-out uses {!Support.Pool.map_result}, so every other cell still
    runs; the failure is ledgered and negative-cached by {!Common} and
    surfaces (as a missing figure cell) when the driver body re-reads
    the caches. *)
