# Repository verification targets. `make verify` is what CI (and the
# ROADMAP's tier-1 gate) should run; the individual targets are useful
# while iterating.

GO ?= go

# Benchmark-trajectory settings: the paper-artifact suite, run -count
# times and reduced to medians by cmd/benchjson. BENCH_JSON is the
# committed trajectory file CI compares fresh runs against.
BENCH_PATTERN ?= BenchmarkFig|BenchmarkTab|BenchmarkLRU|BenchmarkAbl|BenchmarkCkpt|BenchmarkTraceSession|BenchmarkFunctionalStep|BenchmarkSampledRun|BenchmarkSampledParallel|BenchmarkSpineResume|BenchmarkLatticeProbe
BENCH_COUNT   ?= 3
BENCH_JSON    ?= BENCH_PR10.json
# Packages holding trajectory benchmarks: the paper-artifact suite at the
# repo root, the sampling and spine-lattice benchmarks next to their
# drivers, and the lattice codec benchmark in the checkpoint package.
BENCH_PKGS    ?= . ./internal/sim ./internal/ckpt

# Lint: staticcheck at a pinned version, resolved through the module
# proxy by `go run` (not a repo dependency). Requires network access on
# first use; CI caches the module download.
STATICCHECK_VERSION ?= 2025.1.1

# Warm-state checkpoint store settings: `make checkpoints` populates
# CKPT_DIR with checkpoints for the golden-suite configurations, so test
# runs with ACCORD_CHECKPOINT_DIR pointing there skip their warmup.
CKPT_DIR ?= .ckpt

.PHONY: all build test race vet fmt-check lint bench-smoke bench-json bench-compare checkpoints profile verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment scheduler, the metrics registry, and the trace cache's
# lazy-extension protocol are the main concurrency surfaces; exercise
# them under the race detector (short mode keeps the full-experiment
# determinism test out of the hot loop — `go test -race ./internal/exp`
# without -short runs it too).
race:
	$(GO) test -race -short ./internal/exp ./internal/sim ./internal/metrics ./internal/workloads

vet:
	$(GO) vet ./...

# Formatting gate: fails, naming the files, when any Go file is not
# gofmt-clean. Unlike lint it needs no network.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "fmt-check: run gofmt -w on the files above"; exit 1; }

# Static analysis beyond vet. Pinned so lint results are reproducible;
# bump STATICCHECK_VERSION deliberately, not via @latest.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# A fast benchmark pass that catches gross performance or allocation
# regressions on the hot paths the scheduler multiplies, plus the L4
# functional layer the sampling spine runs on (one window per backend,
# so it only proves the benchmark still builds and runs allocation-free).
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSimulatorThroughput|BenchmarkSessionParallel|BenchmarkDRAMCacheRead' -benchtime 2x .
	$(GO) test -run xxx -bench BenchmarkFunctionalBatch -benchtime 1x ./internal/dramcache

# Capture the benchmark trajectory: run the paper-artifact suite and
# reduce it to a committed JSON document (medians, geomean, manifest).
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count $(BENCH_COUNT) -timeout 3600s $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# Compare a fresh capture against the committed baseline; warns at a
# 15% geomean regression and fails at 30% (wall-clock benchmarks on
# shared runners are noisy — see cmd/benchjson).
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count $(BENCH_COUNT) -timeout 3600s $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_current.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_JSON) /tmp/bench_current.json

# Populate CKPT_DIR with warm-state checkpoints for the golden-suite
# configurations (the three architectures at the pinned golden scale).
# The store is content-addressed by a digest over every warmup-affecting
# parameter, so stale entries are never wrongly reused — invalidation is
# automatic and re-running this target after a behavior change simply
# writes new keys.
checkpoints:
	@for org in direct accord ca banshee gemini tdram; do \
		$(GO) run ./cmd/accordsim -workload libquantum -org $$org -ways 2 \
			-scale 8192 -cores 4 -warmup 50000 -measure 50000 -seed 1 \
			-checkpoint-dir $(CKPT_DIR) >/dev/null || exit 1; \
	done
	@echo "checkpoint store populated in $(CKPT_DIR)"

# Profile the simulation kernel end to end: accordbench already carries
# -cpuprofile/-memprofile flags; this wraps them with a representative
# workload and opens the top functions. Use `go tool pprof -http` on
# /tmp/accord.cpu.prof to explore interactively.
profile:
	$(GO) run ./cmd/accordbench -quick -experiment fig1 -cpuprofile /tmp/accord.cpu.prof -memprofile /tmp/accord.mem.prof > /dev/null
	$(GO) tool pprof -top -nodecount=15 /tmp/accord.cpu.prof

verify: build vet fmt-check test race
