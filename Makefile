# Convenience entry points; dune is the source of truth.

.PHONY: all build test quick bench bench-exec perf faults trace check ci clean

all: build

build:
	dune build

test:
	dune runtest

# Smoke check: build + tier-1 tests + the fast figures under VSPEC_JOBS=2.
quick:
	dune build @quick

# Full figure suite + timing report (BENCH_suite.json); does not touch
# BENCH_exec.json (that is `bench-exec`).
bench:
	dune exec bench/main.exe

# Execution-engine micro-benchmarks only: insns/sec for the direct
# interpreter vs the pre-decoded threaded-code engine (BENCH_exec.json).
bench-exec:
	dune exec bench/main.exe -- --exec

# Determinism + decode gates, then a fresh exec micro-benchmark run
# checked against the committed BENCH_exec.json by bench/guard.exe
# (fixed 10% speedup tolerance; plus a fixed slack on the committed
# host words allocated per simulated instruction).
perf:
	dune build @perf

# Fault-tolerance gate: fault unit suite + one figure under seeded
# injection asserting the degraded exit-code contract (exit 1).
faults:
	dune build @faults

# Tracing quickstart: write a Perfetto-loadable trace of one figure to
# trace.json.  Open it at https://ui.perfetto.dev (or chrome://tracing).
# The tracing test gate itself is `dune build @trace` (part of `check`).
trace:
	VSPEC_TRACE=trace.json VSPEC_ITERS=40 VSPEC_BENCH=DP VSPEC_CACHE_DIR=off VSPEC_BENCH_OUT=off \
	  dune exec bin/experiments.exe -- fig1
	@echo "open trace.json in https://ui.perfetto.dev"

# The pre-merge gate: smoke path + fault-tolerance + tracing gates.
check:
	dune build @quick @faults @trace

# Minimal CI entry point: tier-1 build+tests, the smoke alias, and the
# perf guard (fresh exec micro-bench vs committed BENCH_exec.json).
ci:
	dune build
	dune runtest
	dune build @quick @trace
	dune build @perf

clean:
	dune clean
