package workloads

import (
	"testing"

	"accord/internal/memtypes"
)

// rltHitFraction measures the fraction of events whose 4 KB region is
// among the most recent 64 distinct regions accessed — a direct proxy for
// the Recent Lookup Table hit rate that ganged way-steering depends on.
func rltHitFraction(t *testing.T, name string) float64 {
	t.Helper()
	spec := presets[name].spec
	spec.Name = name
	st := NewStream(spec, testCacheLines, 16, 11)
	var ev Event
	recent := map[memtypes.RegionID]int{}
	var order []memtypes.RegionID
	hits, total := 0, 30000
	for i := 0; i < total; i++ {
		st.Next(&ev)
		r := ev.Line.Region()
		if _, ok := recent[r]; ok {
			hits++
		} else {
			order = append(order, r)
			recent[r] = i
			if len(order) > 64 {
				delete(recent, order[0])
				order = order[1:]
			}
		}
	}
	return float64(hits) / float64(total)
}

func TestSpatialWorkloadsHaveRegionLocality(t *testing.T) {
	// The paper's Figure 7 relies on these being gang-friendly: their
	// regions recur within GWS's 64-entry table reach.
	for _, name := range []string{"libquantum", "nekbone", "sphinx3", "leslie3d", "lbm"} {
		if c := rltHitFraction(t, name); c < 0.85 {
			t.Errorf("%s RLT-hit proxy = %.2f, want > 0.85", name, c)
		}
	}
}

func TestSparseWorkloadsLackRegionLocality(t *testing.T) {
	// ...and these being gang-hostile (GWS falls back to PWS).
	for _, name := range []string{"mcf", "pr_twitter", "cc_twitter"} {
		if c := rltHitFraction(t, name); c > 0.6 {
			t.Errorf("%s RLT-hit proxy = %.2f, want < 0.6", name, c)
		}
	}
}

func TestMPKIOrderingMatchesTable4(t *testing.T) {
	// Relative MPKI ordering from the paper's Table IV.
	greater := [][2]string{
		{"mcf", "soplex"},
		{"soplex", "gcc"},
		{"libquantum", "zeusmp"},
		{"omnetpp", "xalancbmk"},
		{"milc", "sphinx3"},
	}
	for _, pair := range greater {
		a := presets[pair[0]].spec.MPKI
		b := presets[pair[1]].spec.MPKI
		if a <= b {
			t.Errorf("MPKI(%s)=%v not above MPKI(%s)=%v", pair[0], a, pair[1], b)
		}
	}
}

func TestFootprintClasses(t *testing.T) {
	// Workloads the paper lists with >2x-cache footprints must have a
	// component far beyond capacity; cache-resident ones must not.
	big := []string{"mcf", "milc", "pr_twitter"}
	for _, name := range big {
		max := 0.0
		for _, c := range presets[name].spec.Components {
			if c.SizeRatio > max {
				max = c.SizeRatio
			}
		}
		if max < 1.5 {
			t.Errorf("%s largest component ratio = %.1f, want > 1.5 (huge footprint)", name, max)
		}
	}
	small := []string{"sphinx3", "nekbone"}
	for _, name := range small {
		for _, c := range presets[name].spec.Components {
			if c.SizeRatio > 0.5 {
				t.Errorf("%s has component ratio %.2f; should be cache-resident", name, c.SizeRatio)
			}
		}
	}
}

func TestGraphWorkloadsAreDependenceHeavy(t *testing.T) {
	for _, name := range []string{"mcf", "pr_twitter", "bc_twitter", "astar"} {
		if d := presets[name].spec.DepFrac; d < 0.6 {
			t.Errorf("%s dependence fraction = %.2f, want >= 0.6 (pointer chasing)", name, d)
		}
	}
	for _, name := range []string{"libquantum", "milc", "lbm"} {
		if d := presets[name].spec.DepFrac; d > 0.3 {
			t.Errorf("%s dependence fraction = %.2f, want <= 0.3 (streaming)", name, d)
		}
	}
}

func TestCoreSuiteMembersAreRateOrMix(t *testing.T) {
	for _, name := range CoreSuite() {
		w := MustGet(name, 4)
		if w.Suite == "" {
			t.Errorf("%s has no suite", name)
		}
		if w.Source != nil {
			t.Errorf("%s unexpectedly carries a stream source", name)
		}
	}
}

func TestMixesDeterministic(t *testing.T) {
	a := Mix(3, 16)
	b := Mix(3, 16)
	for i := range a.Specs {
		if a.Specs[i].Name != b.Specs[i].Name {
			t.Fatal("mix construction not deterministic")
		}
	}
}
