# Convenience targets for the CAD3 reproduction.

GO ?= go

.PHONY: all build test test-short test-checks bench bench-json race vet vet-json fmt cover experiments chaos failover overload scenarios city city-profile profile linkcheck docs clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -run XXX -bench=. -benchmem ./...

# Machine-readable pipeline + wire benchmarks (steady-state vs overload,
# sync vs pipelined vs batched wire), for tracking per-record cost
# across PRs. BENCH_PR4.json is the frozen pre-pipelining baseline.
bench-json:
	$(GO) test -run XXX -bench 'BenchmarkPipeline|BenchmarkWire' -benchmem -json \
		./internal/rsu ./internal/stream > BENCH_PR6.json

race:
	$(GO) test -race ./...

# CPU/heap profiles of the telemetry fast path (wire codec + detection).
# Inspect with: go tool pprof cpu.prof
profile:
	$(GO) test -run XXX -bench 'BenchmarkDetectHotPath|BenchmarkWireCodec' -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/core

# go vet plus the repo-aware analyzers (determinism, pool safety, wire
# layout, zero-alloc, goroutine hygiene, deterministic ordering, lock
# discipline, atomic/plain mixing, wire error exhaustiveness) — see
# DESIGN.md §11 and §16. Results are memoized in .cad3vetcache.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/cad3-vet ./...

# Machine-readable vet: findings, the //cad3:allow suppression census,
# and cache stats as one JSON object. CI runs this with -max-allows to
# keep the suppression count from growing unnoticed.
vet-json:
	$(GO) run ./cmd/cad3-vet -json ./...

# Debug build with the runtime pool guard: double-recycles of pooled
# buffers panic with both offending call sites.
test-checks:
	$(GO) test -tags cad3_checks ./internal/stream/...

# Hermetic markdown cross-reference check (the CI docs job).
linkcheck:
	$(GO) run ./internal/tools/linkcheck \
		README.md DESIGN.md EXPERIMENTS.md OBSERVABILITY.md SCENARIOS.md ROADMAP.md CHANGES.md

docs: vet linkcheck
	test -z "$$(gofmt -l .)"

fmt:
	gofmt -w .

cover:
	$(GO) test ./internal/... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/cad3-bench

# Crash-safety study: partition + crash + recovery continuity table.
chaos:
	$(GO) run ./cmd/cad3-chaos

# Replicated-broker failover study: leader kill + election + revive,
# acks=all durability and consumer-group handoff accounting.
failover:
	$(GO) run ./cmd/cad3-chaos -failover

# Overload study: goodput / warning-p99 / shed-fraction curves under
# multiplied offered load (graceful degradation).
overload:
	$(GO) run ./cmd/cad3-overload

# Deterministic replay of the scenarios/ regression corpus, plus the
# explorer selfcheck (find -> minimize -> archive on an injected
# failure). See SCENARIOS.md for the spec grammar.
scenarios:
	$(GO) run ./cmd/cad3-scenario -selfcheck

# City-scale acceptance: 100k vehicles over a sharded synthetic city
# (replicated brokers per shard, one virtual clock, replica faults
# mid-run). Exits nonzero unless the settlement ledger is clean and the
# per-shard load skew stays within 1.5x the median. See DESIGN.md §15.
city:
	$(GO) run ./cmd/cad3-city -faults

# CPU profile of the same run, written to city.prof, with the top
# functions printed. Inspect further with: go tool pprof city.prof
city-profile:
	$(GO) run ./cmd/cad3-city -faults -cpuprofile city.prof
	$(GO) tool pprof -top -nodecount 25 city.prof

clean:
	rm -f cover.out test_output.txt bench_output.txt cpu.prof mem.prof city.prof core.test
