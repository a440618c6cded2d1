.PHONY: all build test check mc mc-crash mc-batch lint trace-smoke trace-cp bench bench-quick bench-scale perfbench tables tables-quick

all: build

build:
	dune build

test:
	dune runtest

# Static analysis: token lint + cross-file protocol-flow rules
# (Check.Analyzer).  Exits 1 on any finding; `--rule R` filters.
lint:
	dune build bin/lint.exe && ./_build/default/bin/lint.exe lib

# Trace smoke test: tiny traced run -> validate the Chrome JSON + byte
# fingerprint golden (test/goldens/trace_smoke.expected).
trace-smoke:
	dune build @trace-smoke

# Critical-path smoke: decompose the smoke/batched traces into latency
# components and replay a recorded snapshot series
# (test/goldens/trace_critpath.expected).
trace-cp:
	dune build @trace-cp

# Deep model-checking configuration (exhausts the dcs=2/keys=2/txs=3
# schedule tree; takes on the order of a minute).
mc:
	dune build @mc

# Deep crash-schedule model checking: crash-recover of a node ordered
# against every reachable protocol point, including the rf=1 tree where
# fail-over cannot promote.
mc-crash:
	dune build @mc-crash

# Batched-pipeline model checking: message coalescing on (flushes are
# ordinary explored transitions), plus a crash schedule where in-doubt
# batched prepares must resolve via AC1-AC5 and a broken recovery
# variant that must still be caught through the batched path.
mc-batch:
	dune build @mc-batch

check: test mc mc-crash mc-batch lint

# Worker processes for the sweep grid (empty = the host's CPU count).
# Table output is byte-identical whatever the value; only wall-clock
# changes.
JOBS ?=
JOBS_FLAG = $(if $(JOBS),-j $(JOBS),)

# Regenerate every paper table/figure (Quick scale: CI-friendly).
tables-quick:
	dune build bench/main.exe
	./_build/default/bench/main.exe tables $(JOBS_FLAG)

# Same at Full scale (matches the experiment index in DESIGN.md).
tables:
	dune build bench/main.exe
	./_build/default/bench/main.exe tables --full $(JOBS_FLAG)

# Per-PR bench trajectory slot: bench/BENCH_<n>.json, n = highest
# committed slot + 1 (override with BENCH_ID=<n>).
BENCH_ID ?= $(shell ls bench/BENCH_[0-9]*.json 2>/dev/null \
	| sed 's/.*BENCH_\([0-9]*\)\.json/\1/' | sort -n | tail -1 \
	| awk '{ print $$1 + 1 }' ; true)

# Full benchmark pass: regenerate the paper tables, run the bechamel
# suite, write BENCH.json + the bench/BENCH_$(BENCH_ID).json trajectory
# snapshot, and diff against the committed baseline
# (bench/BENCH.baseline.json) — the diff prints the regression verdict.
bench:
	dune build bench/main.exe
	./_build/default/bench/main.exe $(JOBS_FLAG)
	./_build/default/bench/main.exe json
	./_build/default/bench/main.exe json bench/BENCH_$(if $(BENCH_ID),$(BENCH_ID),0).json

# Machine-readable report + baseline diff only (fast; what CI runs).
bench-quick:
	dune build bench/main.exe
	./_build/default/bench/main.exe json

# Million-client scale probe: one open-loop run of ~1M clients on the
# 9-DC grid (then the same run with message coalescing on), then the
# regular json report with the scale rows (events/s, bytes/event, peak RSS) appended
# into the numbered trajectory slot.
bench-scale:
	dune build bench/main.exe
	./_build/default/bench/main.exe scale bench/BENCH_$(if $(BENCH_ID),$(BENCH_ID),0).json

# Repository benchmark (perfbench/, declared in BENCHMARK.json): each of
# the three workloads for 30 s at seed SEED (default: the held-out seed
# 9001), then the benchmark's own tests.  The last line each run prints
# is its JSON result.
SEED ?= 9001

perfbench:
	python3 perfbench/run.py --workload synth-a-below-knee --seed $(SEED) --seconds 30 --trace 0
	python3 perfbench/run.py --workload synth-a-overload --seed $(SEED) --seconds 30 --trace 0
	python3 perfbench/run.py --workload rubis-closed --seed $(SEED) --seconds 30 --trace 0
	python3 perfbench/test_bench.py
