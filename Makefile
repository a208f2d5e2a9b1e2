GO ?= go

.PHONY: all build test race cover bench bench-check soak e2e chaos experiments fuzz examples fmt vet check clean

all: build vet test

# The CI gate: static checks plus the full test suite under the race
# detector. staticcheck runs when installed (CI installs it; locally it is
# optional so `make check` works on a bare toolchain). e2ebench is its own
# module, so ./... skips it; vetting it there also builds it against this
# checkout (its go.mod replaces serena with ../, so no download is needed).
check:
	$(GO) vet ./...
	cd e2ebench && $(GO) vet .
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi
	$(GO) test -race ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Full benchmark suite → machine-readable BENCH_<date>.json at the repo
# root (BENCHTIME=10x for a quick pass; see scripts/bench.sh).
bench:
	sh scripts/bench.sh

# Regression gate: run the suite into BENCH_check.json, then (a) fail if a
# gated benchmark (BenchmarkInvoke*/BenchmarkDurableTick/
# BenchmarkDeltaInvocation*/BenchmarkAggregate*/BenchmarkDeltaAggregate*/
# BenchmarkOperators*/BenchmarkWindowSweep*)
# regressed >20% against the previous report —
# missing or cross-machine baselines pass with a warning (cmd/benchfmt
# -diff) — (b) fail unless the incremental evaluator beats the naive one at
# every window size of the sweep, and (c) fail unless N readers over one
# materialized INTO relation beat N re-evaluated window queries at every
# fan-in width — both same-run comparisons with no cannot-compare escape
# (cmd/benchfmt -faster).
bench-check:
	OUT=BENCH_check.json sh scripts/bench.sh
	$(GO) run ./cmd/benchfmt -diff BENCH_check.json
	$(GO) run ./cmd/benchfmt \
		-faster 'BenchmarkDeltaInvocation/delta<BenchmarkDeltaInvocation/naive' \
		BENCH_check.json
	$(GO) run ./cmd/benchfmt \
		-faster 'BenchmarkMaterializedFanIn/materialized<BenchmarkMaterializedFanIn/reeval' \
		BENCH_check.json

# Overload soak: flood a bounded stream at ~2× drain capacity under -race
# and assert bounded memory, honored sheds and an intact action set; plus
# the SIGKILL crash-during-overload variant (see scripts/soak.sh).
soak:
	sh scripts/soak.sh

# End-to-end dead-man smoke: boot pemsd + serena over the wire, register
# a CQ over sys$streams, SIGKILL the node, and assert the STALLED tuple
# plus the /debug/health and /metrics surfaces (see scripts/e2e_smoke.sh).
e2e:
	bash scripts/e2e_smoke.sh

# Federated node-loss chaos: a 3-node pemsd cluster (two peers replicating
# the same service references, one coordinator), SIGKILL a random peer
# mid-query and assert masking — victim down within a lease, ticks keep
# flowing, deliveries identical to a never-crashed control run
# (see scripts/cluster_chaos.sh; CHAOS_ITERS bounds the kill loop).
chaos:
	bash scripts/cluster_chaos.sh

# Regenerate the EXPERIMENTS.md tables.
experiments:
	$(GO) run ./cmd/benchrun -exp all

# Quick fuzz pass over the three parsers, the WAL codec, the exact float
# sum behind sum/mean aggregates and the tuple-identity map.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/sal/
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/ddl/
	$(GO) test -fuzz=FuzzCompile -fuzztime=10s ./internal/ssql/
	$(GO) test -fuzz=FuzzScanFrames -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzExactSum -fuzztime=10s ./internal/algebra/
	$(GO) test -fuzz=FuzzTupleMap -fuzztime=10s ./internal/value/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/surveillance
	$(GO) run ./examples/rssfeeds
	$(GO) run ./examples/distributed
	$(GO) run ./examples/dashboard

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean -testcache
