package accord

import (
	"testing"
)

// quick returns a configuration scaled for fast facade tests.
func quick(cfg Config) Config {
	cfg.Scale = 8192
	cfg.Cores = 4
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 100_000
	return cfg
}

func TestFacadeRun(t *testing.T) {
	res := Run(quick(ACCORD(2)), "libquantum")
	if res.L4.Reads == 0 || res.HitRate() <= 0 || res.MeanIPC() <= 0 {
		t.Errorf("facade run produced degenerate result: %+v", res.L4)
	}
}

func TestFacadeRunEUnknownWorkload(t *testing.T) {
	if _, err := RunE(quick(DirectMapped()), "not-a-workload"); err == nil {
		t.Error("RunE accepted an unknown workload")
	}
}

func TestFacadeRunPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run did not panic on unknown workload")
		}
	}()
	Run(quick(DirectMapped()), "not-a-workload")
}

func TestFacadeSpeedup(t *testing.T) {
	base := Run(quick(DirectMapped()), "soplex")
	acc := Run(quick(ACCORD(2)), "soplex")
	ws := WeightedSpeedup(acc, base)
	if ws <= 0 {
		t.Errorf("speedup = %v", ws)
	}
}

func TestFacadeCatalogComplete(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(), DirectMapped(), Parallel(2), Serial(2), Idealized(4),
		PerfectWP(2), PWS(0.85), GWS(), ACCORD(2), ACCORD(8), MRU(2),
		PartialTag(2), CACache(), LRU2Way(),
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if _, err := NamedConfig("accord", 2, 0.85); err != nil {
		t.Errorf("NamedConfig: %v", err)
	}
	if _, err := NamedConfig("bogus", 2, 0.85); err == nil {
		t.Error("NamedConfig accepted bogus organization")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(CoreSuite()) != 21 || len(AllSuite()) != 46 {
		t.Errorf("suites = %d / %d, want 21 / 46", len(CoreSuite()), len(AllSuite()))
	}
	if len(WorkloadNames()) != 36 {
		t.Errorf("rate workloads = %d, want 36", len(WorkloadNames()))
	}
	if _, err := GetWorkload("mix3", 16); err != nil {
		t.Errorf("mix3: %v", err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 21 {
		t.Errorf("experiments = %d, want 21", len(Experiments()))
	}
	if _, ok := FindExperiment("fig10"); !ok {
		t.Error("fig10 missing")
	}
}

func TestFacadeDevices(t *testing.T) {
	if HBM().PeakBandwidthGBs() != 128 || PCMConfig().PeakBandwidthGBs() != 32 {
		t.Error("device bandwidths do not match Table III")
	}
}

func TestFacadePolicyConstruction(t *testing.T) {
	p := NewACCORDPolicy(DefaultACCORDConfig(Geometry{Sets: 1024, Ways: 2}, 1))
	if p.StorageBytes() != 320 {
		t.Errorf("ACCORD storage = %d, want 320", p.StorageBytes())
	}
}

func TestFacadeEnergy(t *testing.T) {
	cfg := quick(DirectMapped())
	res := Run(cfg, "milc")
	b := ComputeEnergy(HBM(), res.HBM, PCMConfig(), res.PCM, res.Cycles, CPUClockGHz)
	if b.Total() <= 0 || b.Power() <= 0 {
		t.Errorf("energy breakdown degenerate: %+v", b)
	}
}
