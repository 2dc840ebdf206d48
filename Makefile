# Repository verification targets. `make verify` is what CI (and the
# ROADMAP's tier-1 gate) should run; the individual targets are useful
# while iterating.

GO ?= go

# Lint: staticcheck at a pinned version, resolved through the module
# proxy by `go run` (not a repo dependency). Requires network access on
# first use; CI caches the module download.
STATICCHECK_VERSION ?= 2025.1.1

# Warm-state checkpoint store settings: `make checkpoints` populates
# CKPT_DIR with checkpoints for the golden-suite configurations, so test
# runs with ACCORD_CHECKPOINT_DIR pointing there skip their warmup.
CKPT_DIR ?= .ckpt

.PHONY: all build test race vet fmt-check lint bench-smoke fuzz-smoke checkpoints profile verify

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
# so it only proves the benchmark still builds and runs allocation-free),
# one interval fork each way, codec and in-memory copy, a sampled run
# resumed from a populated spine lattice, and one lattice probe.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSimulatorThroughput|BenchmarkSessionParallel|BenchmarkDRAMCacheRead' -benchtime 2x .
	$(GO) test -run xxx -bench BenchmarkFunctionalBatch -benchtime 1x ./internal/dramcache
	$(GO) test -run xxx -bench 'BenchmarkSpineFork|BenchmarkSpineResume/resumed' -benchtime 1x ./internal/sim
	$(GO) test -run xxx -bench BenchmarkLatticeProbe -benchtime 1x ./internal/ckpt

# A short native-fuzzing pass over the decoders of outside input, 30 s
# per target. FuzzSystemRestore mutates the warm-state and
# interval-boundary snapshots of four tiny systems, re-framed with a
# valid checksum, and Restore must return an error or succeed, never
# panic. FuzzVMRestore and FuzzCacheRestore do the same for the VM
# system and the DRAM cache's tag records over seeds of a few KB, and a
# restore that succeeds must also be a Snapshot/Restore fixed point.
# FuzzLatticeEntry mutates a whole lattice entry file, so every mutation
# reaches the header echo and the payload's CRC, and Load must miss or
# fail, never panic. FuzzReadTrace mutates trace text,
# and ReadTrace must fail or return events that survive a
# WriteTrace/ReadTrace round trip. `go test ./...` runs only their
# seeds. The minimizer is capped because a snapshot-sized input can hold
# it for most of a short run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSystemRestore$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzVMRestore$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/vm
	$(GO) test -run '^$$' -fuzz '^FuzzCacheRestore$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/dramcache
	$(GO) test -run '^$$' -fuzz '^FuzzLatticeEntry$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/workloads

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
