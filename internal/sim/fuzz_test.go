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
func restoreFramed(cfg Config, payload []byte) error {
	s := New(cfg, workloads.MustGet(fuzzWorkload, cfg.Cores))
	e := ckpt.NewEncoder(len(payload) + 4)
	e.Raw(payload)
	return s.Restore(e.Finish(), fuzzWorkload)
}

// FuzzSystemRestore holds Restore to its documented contract: whatever
// the payload, it returns an error or succeeds, and never panics. An
// input picks one of fuzzSystems; its payload is re-framed with a valid
// checksum, since a mutation that only broke the checksum would test
// nothing past it. Each system seeds the payloads of the two boundaries
// a snapshot is taken at, and each must restore as it is: the warm
// state of an exact run (after RunWarmup), and an interval boundary of a
// sampled run (after RunWarmupFunctional and resetIntervalState), the
// blob a spine lattice stores.
func FuzzSystemRestore(f *testing.F) {
	systems := fuzzSystems()
	for i, cfg := range systems {
		for _, boundary := range []string{"warm", "interval"} {
			s := New(cfg, workloads.MustGet(fuzzWorkload, cfg.Cores))
			if boundary == "warm" {
				s.RunWarmup()
			} else {
				s.RunWarmupFunctional()
				s.resetIntervalState()
			}
			blob, err := s.Snapshot(fuzzWorkload)
			if err != nil {
				f.Fatalf("%s %s: %v", cfg.Name, boundary, err)
			}
			payload := blob[:len(blob)-4]
			if err := restoreFramed(cfg, payload); err != nil {
				f.Fatalf("%s %s boundary: seed does not restore: %v", cfg.Name, boundary, err)
			}
			f.Add(uint8(i), payload)
		}
	}
	f.Fuzz(func(t *testing.T, system uint8, payload []byte) {
		_ = restoreFramed(systems[int(system)%len(systems)], payload)
	})
}
