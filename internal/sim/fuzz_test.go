package sim

import (
	"testing"

	"accord/internal/ckpt"
	"accord/internal/workloads"
)

// fuzzWorkload is the workload every fuzzed system is built for; a
// snapshot's fingerprint names it.
const fuzzWorkload = "libquantum"

// fuzzSystems are the tiny systems FuzzSystemRestore decodes into: nway
// with ACCORD's policy tables, the column-associative cache, Banshee's
// page counters, and TDRAM behind the full SRAM hierarchy, so the seeds
// hold every kind of section the format has. Scale 1<<15 keeps each
// seed small enough for the fuzzer's minimizer.
func fuzzSystems() []Config {
	tiny := func(cfg Config) Config {
		cfg.Scale = 1 << 15
		cfg.Cores = 2
		cfg.WarmupInstr = 20_000
		cfg.MeasureInstr = 10_000
		cfg.DisableAdaptiveBudgets = true
		cfg.Seed = 1
		return cfg
	}
	hier := TDRAM(2)
	hier.FullHierarchy = true
	return []Config{tiny(ACCORD(2)), tiny(CACache()), tiny(Banshee()), tiny(hier)}
}

// restoreFramed builds a fresh system from cfg and restores payload into
// it after appending a valid CRC-32C, so the bytes reach the component
// decoders whatever they are.
func restoreFramed(cfg Config, functional bool, payload []byte) error {
	s := New(cfg, workloads.MustGet(fuzzWorkload, cfg.Cores))
	e := ckpt.NewEncoder(len(payload) + 4)
	e.Raw(payload)
	if functional {
		return s.RestoreFunctional(e.Finish(), fuzzWorkload)
	}
	return s.Restore(e.Finish(), fuzzWorkload)
}

// FuzzSystemRestore holds Restore and RestoreFunctional to their
// documented contract: whatever the payload, they return an error or
// succeed, and never panic. An input picks one of fuzzSystems and the
// snapshot kind; its payload is re-framed with a valid checksum, since a
// mutation that only broke the checksum would test nothing past it. The
// seeds are each system's live Snapshot and FunctionalSnapshot payloads
// at the warmup boundary, and each must restore as it is.
func FuzzSystemRestore(f *testing.F) {
	systems := fuzzSystems()
	for i, cfg := range systems {
		s := New(cfg, workloads.MustGet(fuzzWorkload, cfg.Cores))
		s.RunWarmup()
		for _, functional := range []bool{false, true} {
			snap := s.Snapshot
			if functional {
				snap = s.FunctionalSnapshot
			}
			blob, err := snap(fuzzWorkload)
			if err != nil {
				f.Fatalf("%s: %v", cfg.Name, err)
			}
			payload := blob[:len(blob)-4]
			if err := restoreFramed(cfg, functional, payload); err != nil {
				f.Fatalf("%s functional=%t: seed does not restore: %v", cfg.Name, functional, err)
			}
			f.Add(uint8(i), functional, payload)
		}
	}
	f.Fuzz(func(t *testing.T, system uint8, functional bool, payload []byte) {
		_ = restoreFramed(systems[int(system)%len(systems)], functional, payload)
	})
}
