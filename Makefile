.PHONY: build test bench bench-json bench-journal bench-fuzz bench-scale bench-serve bench-diff fuzz perf profile serve-smoke perfbench-smoke ci clean

build:
	dune build @all

test:
	dune build && dune runtest

bench:
	dune exec bench/main.exe

# Only the machine-readable section: writes BENCH_pipeline.json at the
# repository root (one entry per corpus program), including the journal
# overhead section.
bench-json:
	dune exec bench/main.exe -- --json-only

# Re-measure only the search-journal overhead (disabled vs streaming to
# /dev/null), preserving existing pipeline entries in BENCH_pipeline.json.
bench-journal:
	dune exec bench/main.exe -- --journal-only

# Re-measure only the differential-fuzzing throughput section
# (generation + per-oracle check cost), preserving the other
# BENCH_pipeline.json sections.
bench-fuzz:
	dune exec bench/main.exe -- --fuzz-only

# Re-measure only the mega-library scale section (parse and lower cost
# per KB of source, per-goal solve cost, unify attempts and fast-reject
# rates at 100/1000/10000 impls, solve cache off), preserving the other
# BENCH_pipeline.json sections.
bench-scale:
	dune exec bench/main.exe -- --scale-only

# Re-measure only the serve-daemon load section (1000 clients' session
# scripts against one live server: throughput, p50/p99 latency, and the
# evaluation-cache lookup count, which reads 0 because every serve solve
# records a journal), preserving the other BENCH_pipeline.json sections.
bench-serve:
	dune exec bench/main.exe -- --serve-only

# Perf-regression gate: re-measure the machine-readable section and
# compare it against the committed baseline (see docs/PERFORMANCE.md
# for the thresholds). Exits nonzero when any metric breaches the fail
# threshold; thresholds are generous because a 1-run remeasure on a
# loaded machine is noisy.
bench-diff:
	cp BENCH_pipeline.json bench-baseline.json
	dune exec bench/main.exe -- --json-only --runs 1 --warmup 1
	dune exec bench/main.exe -- --diff bench-baseline.json BENCH_pipeline.json --warn-above 1.5 --fail-above 25

# Per-goal cost attribution of the paper's diesel case study: hot-goal
# table + agreement line on stdout, flamegraph artifacts next to it
# (see docs/OBSERVABILITY.md, "Profiling and cost attribution").
profile:
	dune exec bin/argus_cli.exe -- profile --corpus diesel-missing-join \
	  --flame argus-profile.folded --speedscope argus-profile.speedscope.json \
	  --html argus-profile.html

# Differential fuzzing campaign: 500 random programs through every
# oracle at the pinned CI seed, shrinking any counterexample to a
# replayable .trait repro under fuzz-repros/ (see docs/TESTING.md).
fuzz:
	dune exec bin/argus_cli.exe -- fuzz --iters 500 --seed 42 --shrink

# End-to-end smoke of the serve daemon over its stdio transport: pipe
# a 5-line JSON-RPC script (open the paper's timer example, solve,
# render the tree, open a source whose integer literal overflows, shut
# down) through `argus serve` and check that every request got a
# well-formed response, the bad open and only it got a load_error
# (-32002), and the shutdown was still acked (see docs/SERVE.md).
serve-smoke:
	printf '%s\n' \
	  '{"jsonrpc":"2.0","id":1,"method":"open","params":{"session":"smoke","path":"examples/timer.trait"}}' \
	  '{"jsonrpc":"2.0","id":2,"method":"solve","params":{"session":"smoke"}}' \
	  '{"jsonrpc":"2.0","id":3,"method":"tree","params":{"session":"smoke"}}' \
	  '{"jsonrpc":"2.0","id":4,"method":"open","params":{"session":"bad","source":"fn f() { 99999999999999999999999; }"}}' \
	  '{"jsonrpc":"2.0","id":5,"method":"shutdown"}' \
	  | dune exec bin/argus_cli.exe -- serve > serve-smoke.jsonl
	test "$$(wc -l < serve-smoke.jsonl)" -eq 5
	test "$$(grep -c '"jsonrpc":"2.0"' serve-smoke.jsonl)" -eq 5
	grep -q '"id":4,"error":{"code":-32002,' serve-smoke.jsonl
	grep '"id":5,' serve-smoke.jsonl | grep -q '"ok":true'
	! grep -v '"id":4,' serve-smoke.jsonl | grep -q '"error"'
	rm -f serve-smoke.jsonl

# Correctness smoke of the end-to-end benchmark (see perfbench/README.md):
# every workload for 2 s at seed 1, untraced. The benchmark exits 0 even
# when an output check fails, so the gate reads its JSON result lines
# instead: one per workload listed in BENCHMARK.json, each with
# "correct": true.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0 > perfbench-smoke.jsonl
	python3 -c 'import json, sys; \
	  rs = [json.loads(l) for l in open("perfbench-smoke.jsonl") if l.startswith("{")]; \
	  n = len(json.load(open("BENCHMARK.json"))["workloads"]); \
	  print("perfbench smoke: %d/%d workloads correct" % (sum(r.get("correct") is True for r in rs), n)); \
	  sys.exit(0 if len(rs) == n and all(r.get("correct") is True for r in rs) else 1)'
	rm -f perfbench-smoke.jsonl

# Re-measure the evaluation-cache on/off comparison (see
# docs/PERFORMANCE.md), preserving the other BENCH_pipeline.json
# sections.
perf:
	dune exec bench/main.exe -- --cache-only

# What CI runs (.github/workflows/ci.yml, step for step): full build,
# full test suite, a corpus smoke (every bundled program, one verdict
# line each), a 200-iteration fuzz smoke at the pinned seed (all seven
# oracles, serve included), a non-interactive
# `argus watch --once` smoke, the serve stdio-transport smoke, the
# end-to-end benchmark's correctness smoke, the bench smokes that
# regenerate BENCH_pipeline.json (1 timed run, 1 warmup — correctness
# of the harness, not statistics), the perf-regression gate against
# the committed baseline, and the `argus profile` artifact smoke.
ci:
	dune build @all
	dune runtest
	dune exec bin/argus_cli.exe -- corpus --all
	dune exec bin/argus_cli.exe -- fuzz --iters 200 --seed 42
	dune exec bin/argus_cli.exe -- watch --once examples/timer.trait; test $$? -eq 1
	$(MAKE) serve-smoke
	$(MAKE) perfbench-smoke
	cp BENCH_pipeline.json bench-baseline.json
	dune exec bench/main.exe -- --json-only --runs 1 --warmup 1
	dune exec bench/main.exe -- --journal-only --runs 1 --warmup 1
	dune exec bench/main.exe -- --cache-only --runs 1 --warmup 1
	dune exec bench/main.exe -- --scale-only --runs 1 --warmup 1
	dune exec bench/main.exe -- --serve-only --runs 1 --warmup 1
	dune exec bench/main.exe -- --diff bench-baseline.json BENCH_pipeline.json --warn-above 1.5 --fail-above 25
	dune exec bin/argus_cli.exe -- profile --corpus diesel-missing-join \
	  --flame argus-profile.folded --speedscope argus-profile.speedscope.json

clean:
	dune clean
