(** Self-timing for the experiment suite: wall-clock per figure plus
    the suite total, written to [BENCH_suite.json] (override the path
    with [VSPEC_BENCH_OUT]; set it to [off] to skip the file) so the
    perf trajectory is tracked across PRs.

    Progress lines (figure, seconds, jobs, fresh simulations vs disk
    hits) go to stderr so stdout stays bit-identical across cold/warm
    and sequential/parallel runs. *)

val timed : string -> (unit -> unit) -> unit
(** [timed figure f] runs [f], records its wall-clock, and logs a
    one-line summary to stderr. *)

val write_report : unit -> unit
(** Write all recordings so far as JSON:
    [{"jobs": n, "total_seconds": s, "knobs": {name: value}, "sims": n,
    "disk_hits": n, "cold": b, "figures": [{"figure", "seconds",
    "jobs"}, ...]}], where [knobs] lists the [VSPEC_*] variables that
    are set and [cold] is [disk_hits = 0].  No-op if nothing was
    recorded. *)
