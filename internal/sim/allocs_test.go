package sim

import (
	"testing"

	"accord/internal/workloads"
)

// TestDetailedWindowZeroAlloc enforces the steady-state allocation
// contract of the detailed measured-window path on every backend: once a
// system is warm, advancing it through detailed events — the StepRun
// loop over the core's stream, the MSHR admit scan, the DRAM
// calendar-ring reservations — must allocate nothing per event. The
// subtests sit under "generic/": every core drives its L4 through the
// dramcache.Interface dispatch, the one detailed engine there is.
func TestDetailedWindowZeroAlloc(t *testing.T) {
	for _, bc := range backendCases() {
		cfg := bc.cfg
		cfg.Cores = 1
		t.Run("generic/"+bc.name, func(t *testing.T) {
			wl := workloads.MustGet("libquantum", cfg.Cores)
			s := New(cfg, wl)
			s.RunWarmupFunctional()
			// One detailed advance off the measurement to fault in lazy
			// state (row activations).
			target := s.Cores()[0].Instructions()
			target += 20_000
			s.advanceUntil([]int64{target})
			if avg := testing.AllocsPerRun(20, func() {
				target += 10_000
				s.advanceUntil([]int64{target})
			}); avg != 0 {
				t.Errorf("detailed window allocates %.4f per 10k-instr advance, want 0", avg)
			}
		})
	}
}
