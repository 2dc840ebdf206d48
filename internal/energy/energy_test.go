package energy

import (
	"math"
	"testing"

	"accord/internal/cpu"
	"accord/internal/dram"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 || math.Abs(a-b) < 1e-6*math.Abs(b) }

func TestComputeBasics(t *testing.T) {
	hbm := dram.HBM()
	pcm := dram.PCM()
	hstats := dram.Stats{Activates: 1000, Reads: 5000, Writes: 2000}
	pstats := dram.Stats{Activates: 100, Reads: 500, Writes: 200}
	cycles := int64(cpu.ClockGHz * 1e9) // 1 second
	b := Compute(hbm, hstats, pcm, pstats, cycles, cpu.ClockGHz)

	if !approx(b.Seconds, 1.0) {
		t.Errorf("seconds = %v, want 1", b.Seconds)
	}
	wantCache := (1000*hbm.EActivateNJ + 5000*hbm.EReadUnitNJ + 2000*hbm.EWriteUnitNJ) * 1e-9
	if !approx(b.CacheDynamic, wantCache) {
		t.Errorf("cache dynamic = %v, want %v", b.CacheDynamic, wantCache)
	}
	if !approx(b.CacheBackground, hbm.BackgroundW) {
		t.Errorf("cache background = %v, want %v", b.CacheBackground, hbm.BackgroundW)
	}
	if !approx(b.MemBackground, pcm.BackgroundW) {
		t.Errorf("mem background = %v", b.MemBackground)
	}
	if b.Total() <= 0 || b.Power() <= 0 || b.EDP() <= 0 {
		t.Error("non-positive totals")
	}
	if !approx(b.Power(), b.Total()) { // 1 second
		t.Errorf("power = %v, want %v at 1s", b.Power(), b.Total())
	}
}

func TestPCMWritesExpensive(t *testing.T) {
	pcm := dram.PCM()
	reads := deviceDynamic(pcm, dram.Stats{Reads: 1000})
	writes := deviceDynamic(pcm, dram.Stats{Writes: 1000})
	if writes < 3*reads {
		t.Errorf("PCM write energy (%v) should be several times read energy (%v)", writes, reads)
	}
}

func TestZeroDurationPower(t *testing.T) {
	var b Breakdown
	if b.Power() != 0 {
		t.Error("zero-duration power not 0")
	}
}

func TestComputePanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Compute(dram.HBM(), dram.Stats{}, dram.PCM(), dram.Stats{}, 1, 0)
}

func TestCompare(t *testing.T) {
	base := Breakdown{CacheDynamic: 1, MemDynamic: 1, Seconds: 2}
	fast := Breakdown{CacheDynamic: 1, MemDynamic: 0.5, Seconds: 1}
	r := Compare(fast, base)
	if !approx(r.Speedup, 2) {
		t.Errorf("speedup = %v, want 2", r.Speedup)
	}
	if !approx(r.Energy, 0.75) {
		t.Errorf("energy = %v, want 0.75", r.Energy)
	}
	// Power: fast 1.5/1 vs base 2/2=1 -> 1.5.
	if !approx(r.Power, 1.5) {
		t.Errorf("power = %v, want 1.5", r.Power)
	}
	// EDP: 1.5*1 vs 2*2 -> 0.375.
	if !approx(r.EDP, 0.375) {
		t.Errorf("EDP = %v, want 0.375", r.EDP)
	}
}

func TestCompareAgainstEmptyBaseline(t *testing.T) {
	r := Compare(Breakdown{Seconds: 1, CacheDynamic: 1}, Breakdown{})
	if r.Speedup != 0 || r.Power != 0 || r.Energy != 0 || r.EDP != 0 {
		t.Errorf("comparison against empty baseline = %+v, want zeros", r)
	}
}
