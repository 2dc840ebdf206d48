package accord

import (
	"testing"

	"accord/internal/sim"
	"accord/internal/workloads"
)

// ckptBenchConfig is the checkpoint benchmark scale: a long warmup over a
// 1 MB-class cache so the warm-vs-cold pair below measures the speedup
// the store exists to deliver, and the snapshot/restore pair sees a
// fully-populated state.
func ckptBenchConfig() sim.Config {
	cfg := sim.ACCORD(2)
	cfg.Scale = 65536
	cfg.Cores = 4
	cfg.WarmupInstr = 400_000
	cfg.MeasureInstr = 100_000
	cfg.Seed = 1
	return cfg
}

const ckptBenchWorkload = "libquantum"

// BenchmarkCkptSnapshot measures serializing a warmed system; bytes/op is
// the checkpoint size.
func BenchmarkCkptSnapshot(b *testing.B) {
	cfg := ckptBenchConfig()
	s := sim.New(cfg, workloads.MustGet(ckptBenchWorkload, cfg.Cores))
	s.RunWarmup()
	blob, err := s.Snapshot(ckptBenchWorkload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(ckptBenchWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCkptRestore measures deserializing into a freshly built
// system (construction excluded from the timing).
func BenchmarkCkptRestore(b *testing.B) {
	cfg := ckptBenchConfig()
	wl := workloads.MustGet(ckptBenchWorkload, cfg.Cores)
	s := sim.New(cfg, wl)
	s.RunWarmup()
	blob, err := s.Snapshot(ckptBenchWorkload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := sim.New(cfg, workloads.MustGet(ckptBenchWorkload, cfg.Cores))
		b.StartTimer()
		if err := fresh.Restore(blob, ckptBenchWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCkptColdRun and BenchmarkCkptWarmRun are the end-to-end pair
// behind the headline claim: the warm run restores the warmup/measure
// boundary from a populated checkpoint directory instead of simulating
// 4x its measured instructions again.
func BenchmarkCkptColdRun(b *testing.B) {
	cfg := ckptBenchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl := workloads.MustGet(ckptBenchWorkload, cfg.Cores)
		sim.New(cfg, wl).Run(ckptBenchWorkload)
	}
}

func BenchmarkCkptWarmRun(b *testing.B) {
	cfg := ckptBenchConfig()
	cfg.SpineCheckpointDir = b.TempDir()
	// Populate the directory once; every timed iteration must then restore.
	s := sim.New(cfg, workloads.MustGet(ckptBenchWorkload, cfg.Cores))
	if s.Run(ckptBenchWorkload); s.SampleWork().LatticeHits != 0 {
		b.Fatal("first run unexpectedly found a checkpoint")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(cfg, workloads.MustGet(ckptBenchWorkload, cfg.Cores))
		if s.Run(ckptBenchWorkload); s.SampleWork().LatticeHits != 1 {
			b.Fatal("warm run fell back to a cold simulation")
		}
	}
}
