# qens build/verify harness. `make check` is the tier-1 gate referenced
# by ROADMAP.md: formatting, vet, build, and the race-enabled test run.
# `make ci` is what the GitHub Actions workflow runs: the full check
# plus a live gateway load-smoke against a tiny simulated fleet.

GO ?= go

.PHONY: all check ci loadsmoke fuzz fmt fmt-check vet build test race bench bench-train bench-wire bench-telemetry bench-shard bench-ingest bench-reuse bench-paper clean

all: check

check: fmt-check vet build race

ci: check loadsmoke

# End-to-end serving smoke: boots qens-gateway, drives it with
# qensload, then asserts a clean SIGTERM drain and trace flush.
loadsmoke:
	sh scripts/loadsmoke.sh

# Short fuzz campaigns over the wire-facing parsers.
fuzz:
	$(GO) test -fuzz FuzzReadWorkload -fuzztime 30s ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzWireV2 -fuzztime 30s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzWirePush -fuzztime 30s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzRTreePrune -fuzztime 30s ./internal/geometry/

fmt:
	gofmt -w .

# gofmt -l prints offending files; fail loudly when any exist.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Planner microbenchmarks (BenchmarkPlan, fleet size x dims) rendered
# as BENCH_plan.json; fails if the query-driven fast path allocates.
# Override the per-case budget with BENCHTIME=100ms for a quick smoke.
bench:
	sh scripts/bench_plan.sh

# Node training-engine microbenchmarks (BenchmarkNodeTrain, view vs
# copy data paths) rendered as BENCH_train.json; fails if the LR
# per-cluster data plane allocates or the engine path loses its >=2x
# edge over the copy path at 10k samples.
bench-train:
	sh scripts/bench_train.sh

# Wire-protocol microbenchmarks (BenchmarkWireEncode/Decode/RPC, v1
# JSON vs v2 binary) rendered as BENCH_wire.json; fails if the v2
# encode path allocates, loses its >=2x encode / >=3x encode+decode /
# >=2x wire-size edge, or pipelined RPCs drop below 1.5x serialized v1.
bench-wire:
	sh scripts/bench_wire.sh

# Rolling-window telemetry microbenchmarks (BenchmarkRollingObserve /
# BenchmarkRollingStats) rendered as BENCH_telemetry.json; fails if the
# rolling Observe hot path allocates or the memoized merged read
# exceeds 200ns/op.
bench-telemetry:
	sh scripts/bench_telemetry.sh

# Sharded-topology serving benchmark (BenchmarkShardServe, single
# leader vs 2-region root coordinator over the same fleet) rendered as
# BENCH_shard.json; reports the throughput ratio without gating on it.
bench-shard:
	sh scripts/bench_shard.sh

# Streaming-ingestion benchmarks (BenchmarkRequantize10k incremental
# vs full Lloyd at 10k samples / 1% batches; push vs pull wire bytes
# per epoch bump) rendered as BENCH_ingest.json; fails if incremental
# requantization is not >=3x faster or push is not below pull.
bench-ingest:
	sh scripts/bench_ingest.sh

# Adaptive-serving replay benchmark (BenchmarkReuseReplay, exact-only
# reuse cache vs the approximate model-answer tier over the same
# contained-heavy workload) rendered as BENCH_reuse.json; fails if the
# approx tier cuts federated training executions by less than 30% or
# lets served-answer MSE past 2x the exact-only replay.
bench-reuse:
	sh scripts/bench_reuse.sh

# Paper-figure macro benchmarks (Tables I-II, Figures 6-9); these
# train real fleets and take minutes.
bench-paper:
	$(GO) test -bench=. -benchmem -run '^$$' .

clean:
	$(GO) clean -testcache
