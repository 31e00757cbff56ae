.PHONY: build test bench bench-json bench-journal bench-fuzz bench-scale bench-serve bench-diff fuzz perf profile serve-smoke perfbench-smoke test-hermetic lint-single-domain lint-one-vocabulary loc ci clean

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

# The suites that drive the CLI and the bench run from any working
# directory and leave nothing behind: run each executable from the
# repository root and fail, printing `git status --porcelain`, if one
# fails or adds or changes a file git sees.
HERMETIC_SUITES = test_journal test_serve test_fuzz test_profile

test-hermetic:
	dune build ./bin/argus_cli.exe ./bench/main.exe \
	  $(foreach t,$(HERMETIC_SUITES),./test/$(t).exe)
	@before=$$(git status --porcelain); \
	for t in $(HERMETIC_SUITES); do \
	  ./_build/default/test/$$t.exe || exit 1; \
	  after=$$(git status --porcelain); \
	  if [ "$$before" != "$$after" ]; then \
	    echo "$$t.exe changed the checkout:"; printf '%s\n' "$$after"; exit 1; \
	  fi; \
	done

# argus runs on one domain: no module under lib/, bin/ or bench/ may use
# the multicore primitives.  Fails on, and prints, any line that names
# Domain, Atomic, Mutex or Condition.
lint-single-domain:
	! grep -rnE '\b(Domain|Atomic|Mutex|Condition)\.' --include='*.ml' --include='*.mli' lib bin bench

# One search vocabulary: the solver's trace and the search journal share
# one declaration of the result, provenance, flag and unify-failure
# types.  Fails on, and prints, a declaration of `Yes | Maybe | No`,
# `Impl_where of`, `Ambiguous_selection` or `Head_mismatch of` found in
# more than one module under lib/, bin/ and bench/ (a module's .ml/.mli
# pair counts once; lines with `->`, and qualified names, are uses).
lint-one-vocabulary:
	@status=0; \
	for re in '\bYes \| Maybe \| No\b' '\bImpl_where of\b' \
	  '(^|\|)\s*Ambiguous_selection\s*($$|\(\*|\|)' '\bHead_mismatch of\b'; do \
	  hits=$$(grep -rnE --include='*.ml' --include='*.mli' "$$re" lib bin bench | grep -v -- '->'); \
	  n=$$(printf '%s\n' "$$hits" | grep . | sed -E 's/\.mli?:.*//' | sort -u | wc -l); \
	  if [ "$$n" -gt 1 ]; then \
	    echo "declared in $$n modules: $$re"; printf '%s\n' "$$hits"; status=1; \
	  fi; \
	done; \
	exit $$status

# The line-count metric that ROADMAP.md tracks: lines of *.ml/*.mli in
# lib/ bin/ bench/ together, in test/, and in perfbench/.
loc:
	@for d in 'lib bin bench' test perfbench; do \
	  printf '%-14s %s\n' "$$d" "$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)"; \
	done

# What CI runs (.github/workflows/ci.yml, step for step): full build,
# full test suite, the four suites that drive the CLI run from the
# repository root (hermetic), the single-domain and one-vocabulary lints, the
# line-count metric, a corpus smoke (every
# bundled program, one verdict line each), a 200-iteration fuzz smoke at the pinned seed (all six
# oracles, serve included), a non-interactive
# `argus watch --once` smoke, the serve stdio-transport smoke, the
# end-to-end benchmark's correctness smoke, the bench smokes that
# regenerate BENCH_pipeline.json (1 timed run, 1 warmup — correctness
# of the harness, not statistics), the perf-regression gate against
# the committed baseline, and the `argus profile` artifact smoke.
ci:
	dune build @all
	dune runtest
	$(MAKE) test-hermetic
	$(MAKE) lint-single-domain
	$(MAKE) lint-one-vocabulary
	$(MAKE) loc
	dune exec bin/argus_cli.exe -- corpus --all
	dune exec bin/argus_cli.exe -- fuzz --iters 200 --seed 42
	dune exec bin/argus_cli.exe -- watch --once examples/timer.trait; test $$? -eq 1
	timeout 60 dune exec bin/argus_cli.exe -- check examples/deep_chain.trait
	timeout 60 dune exec bin/argus_cli.exe -- check --events-out /dev/null examples/deep_chain.trait
	timeout 60 dune exec bin/argus_cli.exe -- check --no-cache examples/deep_chain.trait
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
