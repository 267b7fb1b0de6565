.PHONY: all build test fmt lint-polycompare check bench bench-record bench-bless bench-regress-check bench-smoke bench-par-check bench-cache-check bench-fault-check bench-scale-check bench-serve bench-serve-check bench-asynch bench-asynch-check clean

all: build

# the git rev and date every ledger entry is stamped with
STAMP = --rev $$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
  --date $$(date -u +%Y-%m-%d)

build:
	dune build

test:
	dune runtest

# dune-file formatting only: ocamlformat is not part of the toolchain
# (see dune-project), so @fmt covers the dune files.
fmt:
	dune fmt

# the hot-path directories must stay free of polymorphic compare, in the
# source (grep) and in the compiled objects (nm -u), so the two libraries
# are built first (see tools/lint_polycompare.sh and DESIGN.md section 15)
lint-polycompare:
	dune build lib/graphlib/graphlib.cmxa lib/congest/congest.cmxa \
	  lib/asynch/asynch.cmxa
	sh tools/lint_polycompare.sh

# the one gate to run before pushing: formatting, lint, full build, full
# test suite, and a smoke run of the observability pipeline
check:
	dune build @fmt
	$(MAKE) lint-polycompare
	dune build
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) bench-par-check
	$(MAKE) bench-fault-check
	$(MAKE) bench-scale-check
	$(MAKE) bench-serve-check
	$(MAKE) bench-asynch-check
	$(MAKE) bench-regress-check

bench:
	dune exec bench/main.exe

# append one machine-readable entry to the bench ledger: per-experiment
# wall/gc/RSS/congestion, span totals with allocation, steady-state
# alloc-per-round probes, cache hit rates, and the SV1 serve section,
# stamped with the git rev and date.  After appending, the ledger is
# trimmed to the most recent blessed baseline plus the last two entries —
# everything the regression gate can consult — so it stays ~3 lines.
bench-record:
	dune build bench/main.exe tools/bench_diff.exe
	./_build/default/bench/main.exe --no-breakdown \
	  --ledger BENCH_LEDGER.jsonl \
	  $(STAMP)
	./_build/default/tools/bench_diff.exe --trim BENCH_LEDGER.jsonl

# promote the latest ledger entry to the regression-gate baseline — the
# escape hatch after an intentional perf change (document it in the PR)
bench-bless:
	dune build tools/bench_diff.exe
	./_build/default/tools/bench_diff.exe --bless BENCH_LEDGER.jsonl

# regression gate: validate the ledger schema, append a fresh entry for the
# current tree, and compare it against the most recent blessed baseline
# with per-metric thresholds (see DESIGN.md section 13).  Self-test the
# failure path with an injected slowdown:
#   BENCH_SYNTH_SLOWDOWN=0.25 make bench-regress-check   # must exit nonzero
bench-regress-check:
	dune build bench/main.exe tools/bench_diff.exe tools/jsonl_check.exe
	./_build/default/tools/jsonl_check.exe --ledger BENCH_LEDGER.jsonl
	$(MAKE) bench-record
	./_build/default/tools/bench_diff.exe BENCH_LEDGER.jsonl

# one fast experiment with the JSONL sink on, then validate the stream:
# every line parses, the required event types are present, and spans cover
# at least four distinct construction phases
bench-smoke:
	dune build bench/main.exe tools/jsonl_check.exe
	./_build/default/bench/main.exe --only E1 --jsonl /tmp/e1.jsonl
	./_build/default/tools/jsonl_check.exe /tmp/e1.jsonl

# determinism gate for the domain pool: the same experiment must print
# byte-identical output at --jobs 1 and --jobs 2 (span timing tables are
# suppressed — they are the one legitimately nondeterministic block — and
# both runs write the same --jsonl path so the footer matches), and the
# JSONL stream produced under worker domains must still validate
bench-par-check:
	dune build bench/main.exe tools/jsonl_check.exe
	./_build/default/bench/main.exe --only E1 --no-breakdown \
	  --jsonl /tmp/e1-par.jsonl --jobs 1 > /tmp/e1-par-j1.out
	./_build/default/bench/main.exe --only E1 --no-breakdown \
	  --jsonl /tmp/e1-par.jsonl --jobs 2 > /tmp/e1-par-j2.out
	diff /tmp/e1-par-j1.out /tmp/e1-par-j2.out
	./_build/default/tools/jsonl_check.exe /tmp/e1-par.jsonl
	$(MAKE) bench-cache-check

# cache-invariance gate: the memo cache must not change what an experiment
# computes.  It runs R1, whose cache-on run serves hits from five spaces
# (gen.apollonian, gen.torus_grid, gen.grid, spanning.bfs_tree,
# generic.construct), so cached values are really compared.  Stdout must
# be byte-identical with the cache on and off, minus the "wrote N events"
# footer, and the JSONL data events must match modulo timestamps.  Spans,
# metrics and the footer's span count legitimately differ: a cache hit
# skips the producer's span and its counters.
bench-cache-check:
	dune build bench/main.exe
	./_build/default/bench/main.exe --only R1 --no-breakdown \
	  --jsonl /tmp/r1-cache.jsonl > /tmp/r1-cache-on.raw
	cp /tmp/r1-cache.jsonl /tmp/r1-cache-on.jsonl
	./_build/default/bench/main.exe --only R1 --no-breakdown \
	  --no-cache --jsonl /tmp/r1-cache.jsonl > /tmp/r1-cache-off.raw
	grep -v '^wrote [0-9]* events to ' /tmp/r1-cache-on.raw > /tmp/r1-cache-on.out
	grep -v '^wrote [0-9]* events to ' /tmp/r1-cache-off.raw > /tmp/r1-cache-off.out
	diff /tmp/r1-cache-on.out /tmp/r1-cache-off.out
	grep -v -e '"type":"span"' -e '"type":"metrics"' /tmp/r1-cache-on.jsonl \
	  | sed 's/"ts":[0-9.e-]*,//g' > /tmp/r1-cache-on.events
	grep -v -e '"type":"span"' -e '"type":"metrics"' /tmp/r1-cache.jsonl \
	  | sed 's/"ts":[0-9.e-]*,//g' > /tmp/r1-cache-off.events
	diff /tmp/r1-cache-on.events /tmp/r1-cache-off.events

# open-loop serving benchmark (SV1): Poisson arrivals over the query fleet,
# cold and warm phases, latency quantiles into the ledger's "serve" section
bench-serve:
	dune build bench/main.exe tools/jsonl_check.exe
	rm -f /tmp/sv1-serve.jsonl /tmp/sv1-ledger.jsonl
	./_build/default/bench/main.exe --only SV1 --no-breakdown \
	  --jsonl /tmp/sv1-serve.jsonl --ledger /tmp/sv1-ledger.jsonl \
	  $(STAMP)

# serving gate: a fixed-seed SV1 run must produce a well-formed latency
# stream (every serve_query carries seq/graph/kind/latency, at least one
# serve_summary with ordered quantiles) and a ledger entry whose "serve"
# section validates.  The p99 bound is a sanity rail, not an SLO: steady
# state sits near ~100ms on this container, so 5000ms only catches a
# pathological server (lost batches, a stuck pool), never noise.
bench-serve-check:
	$(MAKE) bench-serve
	./_build/default/tools/jsonl_check.exe \
	  --require span,metrics,serve_query,serve_summary --min-spans 2 \
	  --max-p99 5000 /tmp/sv1-serve.jsonl
	./_build/default/tools/jsonl_check.exe --ledger /tmp/sv1-ledger.jsonl

bench-asynch:
	dune build bench/main.exe tools/jsonl_check.exe
	rm -f /tmp/as1.jsonl /tmp/as1-ledger.jsonl
	./_build/default/bench/main.exe --only AS1 --no-breakdown \
	  --jsonl /tmp/as1.jsonl --ledger /tmp/as1-ledger.jsonl \
	  $(STAMP)

# asynchronous-executor gate: AS1's simulated times and message counts are
# pure functions of (graph, algorithm, latency seed), so the run must be
# byte-deterministic across --jobs settings, the JSONL stream must carry
# well-formed asynch_summary events, and the ledger entry must validate
# with a well-formed "asynch" section
bench-asynch-check:
	$(MAKE) bench-asynch
	./_build/default/bench/main.exe --only AS1 --no-breakdown \
	  --jobs 1 > /tmp/as1-j1.out
	./_build/default/bench/main.exe --only AS1 --no-breakdown \
	  --jobs 2 > /tmp/as1-j2.out
	./_build/default/bench/main.exe --only AS1 --no-breakdown \
	  --jobs 4 > /tmp/as1-j4.out
	diff /tmp/as1-j1.out /tmp/as1-j2.out
	diff /tmp/as1-j1.out /tmp/as1-j4.out
	./_build/default/tools/jsonl_check.exe \
	  --require span,metrics,asynch_summary --min-spans 2 /tmp/as1.jsonl
	./_build/default/tools/jsonl_check.exe --ledger /tmp/as1-ledger.jsonl

# fault-injection determinism gate: the R-series robustness experiment runs
# its whole fault schedule from named seeded streams, so two runs at the
# same seed must print byte-identical output, and the JSONL stream must
# carry the fault_summary events the engine emits for every faulty run
bench-fault-check:
	dune build bench/main.exe tools/jsonl_check.exe
	./_build/default/bench/main.exe --only R1 --no-breakdown \
	  --jsonl /tmp/r1-fault.jsonl > /tmp/r1-fault-a.out
	./_build/default/bench/main.exe --only R1 --no-breakdown \
	  --jsonl /tmp/r1-fault.jsonl > /tmp/r1-fault-b.out
	diff /tmp/r1-fault-a.out /tmp/r1-fault-b.out
	./_build/default/tools/jsonl_check.exe \
	  --require span,metrics,robustness,fault_summary /tmp/r1-fault.jsonl

# scale gate for the CSR substrate: the S1 experiment must finish both a
# 10^6-node grid and a 10^6-node RMAT (build + BFS + MST) inside a
# 10-minute / 8 GiB budget, print the pinned counts of
# test/expected/S1.out (minus the lines naming the output files), the
# JSONL stream must carry valid scale events with the build/BFS/MST
# timings and peak RSS, and the ledger entry it writes must validate with
# a well-formed "scale" section.  S1 takes ~15 s and ~0.75 GB peak on a
# 2-vCPU Xeon, too heavy for dune runtest, so its pin is checked here.
bench-scale-check:
	dune build bench/main.exe tools/jsonl_check.exe
	rm -f /tmp/s1-ledger.jsonl
	sh -c 'ulimit -v 8388608; exec timeout 600 ./_build/default/bench/main.exe \
	  --only S1 --no-breakdown --jsonl /tmp/s1-scale.jsonl \
	  --ledger /tmp/s1-ledger.jsonl \
	  $(STAMP)' \
	  > /tmp/s1-scale.out
	grep -v -e '^wrote [0-9]* events to ' -e '^appended ledger entry ' \
	  /tmp/s1-scale.out | diff test/expected/S1.out -
	./_build/default/tools/jsonl_check.exe --require span,metrics,scale \
	  --min-spans 3 /tmp/s1-scale.jsonl
	./_build/default/tools/jsonl_check.exe --ledger /tmp/s1-ledger.jsonl

clean:
	dune clean
