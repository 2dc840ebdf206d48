package dramcache

import (
	"math/rand"
	"testing"

	"accord/internal/core"
	"accord/internal/memtypes"
)

// Conservation and accounting invariants that must hold for any
// organization under any traffic.

// registryInstance builds one instance of each registered backend on a
// shared small geometry, with a policy attached where the backend wants
// one, so invariant tests iterate the registry instead of hard-coding
// organizations.
func registryInstance(t *testing.T, name string, seed int64) Interface {
	t.Helper()
	dev, nvm := devices()
	cfg := BackendConfig{
		CapacityBytes: 256 << 10,
		Ways:          2,
		Lookup:        LookupPredicted,
	}
	spec, ok := GetBackend(name)
	if !ok {
		t.Fatalf("backend %q vanished from the registry", name)
	}
	if spec.UsesPolicy {
		cfg.Policy = core.NewACCORD(core.DefaultACCORD(cfg.Geometry(), seed))
	}
	c, err := spec.New(cfg, Deps{Dev: dev, NVM: nvm, Frames: 1 << 16})
	if err != nil {
		t.Fatalf("building backend %q: %v", name, err)
	}
	return c
}

// TestRegistryUniversalInvariants drives every registered backend with
// the same randomized traffic and checks the accounting identities all
// organizations share, plus each backend's own structural invariants.
// Organization-specific conservation laws (e.g. installs == misses,
// which Banshee's bypass breaks by design) stay in the per-organization
// tests below.
func TestRegistryUniversalInvariants(t *testing.T) {
	for _, name := range BackendNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			c := registryInstance(t, name, 3)
			r := rand.New(rand.NewSource(9))
			for i := 0; i < 30000; i++ {
				line := memtypes.LineAddr(r.Intn(16384))
				if r.Intn(5) == 0 {
					c.Writeback(0, line)
				} else {
					c.AccessRead(0, line)
				}
			}
			s := c.Stats()
			if s.Reads == 0 || s.ReadHits == 0 || s.Reads == s.ReadHits {
				t.Fatalf("degenerate traffic: reads %d, hits %d", s.Reads, s.ReadHits)
			}
			if s.Reads != s.ReadHits+s.NVMReads {
				t.Errorf("reads %d != hits %d + NVM reads %d", s.Reads, s.ReadHits, s.NVMReads)
			}
			if s.HitLatency.Count != s.ReadHits {
				t.Errorf("hit latency count %d != hits %d", s.HitLatency.Count, s.ReadHits)
			}
			if s.MissLatency.Count != s.Reads-s.ReadHits {
				t.Errorf("miss latency count %d != misses %d", s.MissLatency.Count, s.Reads-s.ReadHits)
			}
			if s.WritebackHits > s.Writebacks {
				t.Errorf("writeback hits %d > writebacks %d", s.WritebackHits, s.Writebacks)
			}
			if s.Correct > s.Predictions {
				t.Errorf("correct %d > predictions %d", s.Correct, s.Predictions)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestAccountingConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lookup Lookup
		ways   int
	}{
		{"dm", LookupPredicted, 1},
		{"2way-pred", LookupPredicted, 2},
		{"4way-parallel", LookupParallel, 4},
		{"4way-serial", LookupSerial, 4},
		{"8way-perfect", LookupPerfect, 8},
		{"8way-ideal", LookupIdealized, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := core.NewACCORD(core.DefaultACCORD(core.Geometry{Sets: 64, Ways: tc.ways}, 3))
			c := build(64, tc.ways, tc.lookup, pol)
			r := rand.New(rand.NewSource(9))
			for i := 0; i < 20000; i++ {
				line := memtypes.LineAddr(r.Intn(4096))
				if r.Intn(5) == 0 {
					c.Writeback(0, line)
				} else {
					c.AccessRead(0, line)
				}
			}
			s := c.Stats()
			// Every demand read either hits or goes to NVM.
			if s.Reads != s.ReadHits+s.NVMReads {
				t.Errorf("reads %d != hits %d + NVM reads %d", s.Reads, s.ReadHits, s.NVMReads)
			}
			// Every miss and every absent writeback installs exactly once.
			wantInstalls := (s.Reads - s.ReadHits) + (s.Writebacks - s.WritebackHits)
			if s.InstallWrites != wantInstalls {
				t.Errorf("installs %d, want %d", s.InstallWrites, wantInstalls)
			}
			// NVM writes can never exceed installs (only dirty victims).
			if s.NVMWrites > s.InstallWrites {
				t.Errorf("NVM writes %d exceed installs %d", s.NVMWrites, s.InstallWrites)
			}
			// Latency populations match the hit/miss counts.
			if s.HitLatency.Count != s.ReadHits {
				t.Errorf("hit latency count %d != hits %d", s.HitLatency.Count, s.ReadHits)
			}
			if s.MissLatency.Count != s.Reads-s.ReadHits {
				t.Errorf("miss latency count %d != misses %d", s.MissLatency.Count, s.Reads-s.ReadHits)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCAAccountingConservation(t *testing.T) {
	c := buildCA(128)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		line := memtypes.LineAddr(r.Intn(2048))
		if r.Intn(5) == 0 {
			c.Writeback(0, line)
		} else {
			c.AccessRead(0, line)
		}
	}
	s := c.Stats()
	if s.Reads != s.ReadHits+s.NVMReads {
		t.Errorf("reads %d != hits %d + NVM reads %d", s.Reads, s.ReadHits, s.NVMReads)
	}
	if s.NVMWrites == 0 {
		t.Error("dirty traffic never reached NVM")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPredictedProbesBounded(t *testing.T) {
	// Probes per read is bounded by the candidate count for every policy.
	for _, ways := range []int{2, 4, 8} {
		pol := core.NewACCORD(core.DefaultACCORD(core.Geometry{Sets: 32, Ways: ways}, 5))
		c := build(32, ways, LookupPredicted, pol)
		r := rand.New(rand.NewSource(int64(ways)))
		for i := 0; i < 10000; i++ {
			c.AccessRead(0, memtypes.LineAddr(r.Intn(2048)))
		}
		maxProbes := float64(ways)
		if ways > 2 {
			maxProbes = 2 // SWS restricts to preferred+alternate
		}
		if ppr := c.Stats().ProbesPerRead(); ppr > maxProbes+1e-9 {
			t.Errorf("%d-way probes/read = %.3f, want <= %.0f", ways, ppr, maxProbes)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l LatencySum
	if l.Percentile(0.5) != 0 {
		t.Error("empty percentile not 0")
	}
	for i := 0; i < 100; i++ {
		l.add(100) // bucket [64,128) -> index 6
	}
	l.add(100000) // far tail
	p50 := l.Percentile(0.5)
	if p50 < 100 || p50 > 256 {
		t.Errorf("p50 = %d, want around 128", p50)
	}
	p999 := l.Percentile(0.999)
	if p999 < 65536 {
		t.Errorf("p99.9 = %d, should capture the tail", p999)
	}
	// Percentiles are monotone in q.
	if l.Percentile(0.1) > l.Percentile(0.9) {
		t.Error("percentiles not monotone")
	}
}

func TestMispredictedHitSecondProbe(t *testing.T) {
	// Force a mispredict: MRU policy predicts way 0 for a cold set, but
	// the line lives in way 1.
	g := core.Geometry{Sets: 16, Ways: 2}
	pol := core.NewMRU(g, 1)
	c := build(16, 2, LookupPredicted, pol)
	line := memtypes.LineAddr(3)
	// Install until the line lands in way 1.
	for {
		c.AccessRead(0, line)
		if w, _ := c.Contains(line); w == 1 {
			break
		}
		c.AccessRead(0, memtypes.LineAddr(uint64(line)+16*uint64(c.Stats().Reads)))
	}
	// Overwrite MRU's training by touching another set — MRU is per-set,
	// so reset its state via a fresh policy instead: rebuild deterministic.
	s := *c.Stats()
	if s.Predictions > 0 && s.Correct == s.Predictions {
		t.Skip("placement never exercised a mispredict under this seed")
	}
}

func TestWritebackToFullSetEvicts(t *testing.T) {
	pol := core.NewRand(core.Geometry{Sets: 4, Ways: 2}, 2)
	c := build(4, 2, LookupPredicted, pol)
	// Fill set 0 with reads, then write back a third conflicting line.
	c.AccessRead(0, 0)
	c.AccessRead(0, 4)
	c.Writeback(0, 8)
	if _, ok := c.Contains(8); !ok {
		t.Fatal("writeback-installed line missing")
	}
	// Random replacement picks ways without regard to validity (the
	// paper's update-free policy), so between 1 and 2 of the three
	// conflicting lines can be resident — never all three.
	occupied := 0
	for _, l := range []memtypes.LineAddr{0, 4, 8} {
		if _, ok := c.Contains(l); ok {
			occupied++
		}
	}
	if occupied < 1 || occupied > 2 {
		t.Errorf("%d of 3 conflicting lines resident in a 2-way set", occupied)
	}
}
