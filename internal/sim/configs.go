package sim

import (
	"fmt"

	"accord/internal/core"
	"accord/internal/dramcache"
)

// The canned configurations below are the design points the paper's
// figures compare. Each starts from Default() (the direct-mapped
// baseline) and changes only the L4 organization and policy.

// RandFactory builds the unbiased random policy.
func RandFactory() PolicyFactory {
	return func(g core.Geometry, seed int64) core.Policy { return core.NewRand(g, seed) }
}

// MRUFactory builds the per-set MRU predictor (Table II / Figure 14).
func MRUFactory() PolicyFactory {
	return func(g core.Geometry, seed int64) core.Policy { return core.NewMRU(g, seed) }
}

// PartialTagFactory builds the partial-tag predictor with the paper's
// 4-bit tags (Table II / Figure 14).
func PartialTagFactory() PolicyFactory {
	return func(g core.Geometry, seed int64) core.Policy { return core.NewPartialTag(g, 4, seed) }
}

// PWSFactory builds probabilistic way-steering with the given PIP.
func PWSFactory(pip float64) PolicyFactory {
	return func(g core.Geometry, seed int64) core.Policy {
		return core.NewACCORD(core.ACCORDConfig{Geom: g, UsePWS: true, PIP: pip, Seed: seed})
	}
}

// GWSFactory builds ganged way-steering alone (unbiased fallback).
func GWSFactory() PolicyFactory {
	return func(g core.Geometry, seed int64) core.Policy {
		return core.NewACCORD(core.ACCORDConfig{
			Geom: g, UseGWS: true, RITEntries: 64, RLTEntries: 64, Seed: seed,
		})
	}
}

// ACCORDFactory builds the full PWS+GWS policy (plus SWS above 2 ways).
func ACCORDFactory() PolicyFactory {
	return func(g core.Geometry, seed int64) core.Policy {
		return core.NewACCORD(core.DefaultACCORD(g, seed))
	}
}

// DirectMapped returns the baseline configuration.
func DirectMapped() Config { return Default() }

// Unbiased returns an N-way cache with random install and the given
// lookup strategy.
func Unbiased(ways int, lookup dramcache.Lookup) Config {
	c := Default()
	c.Name = fmt.Sprintf("%dway-%s", ways, lookup)
	c.Ways = ways
	c.Lookup = lookup
	c.Policy = RandFactory()
	return c
}

// Parallel returns the parallel-lookup N-way design (Figure 1b).
func Parallel(ways int) Config { return Unbiased(ways, dramcache.LookupParallel) }

// Serial returns the serial-lookup N-way design (Figure 3b).
func Serial(ways int) Config { return Unbiased(ways, dramcache.LookupSerial) }

// Idealized returns the Figure 1(c) oracle: N-way hit-rate at 1-way cost.
func Idealized(ways int) Config {
	c := Unbiased(ways, dramcache.LookupIdealized)
	c.Name = fmt.Sprintf("%dway-idealized", ways)
	return c
}

// PerfectWP returns the perfect-way-prediction design (Figure 10).
func PerfectWP(ways int) Config {
	c := Unbiased(ways, dramcache.LookupPerfect)
	c.Name = fmt.Sprintf("%dway-perfect", ways)
	return c
}

// PWS returns the 2-way probabilistic way-steering design at a given PIP.
func PWS(pip float64) Config {
	c := Default()
	c.Name = fmt.Sprintf("2way-pws%.0f", pip*100)
	c.Ways = 2
	c.Lookup = dramcache.LookupPredicted
	c.Policy = PWSFactory(pip)
	return c
}

// GWS returns the 2-way ganged way-steering design.
func GWS() Config {
	c := Default()
	c.Name = "2way-gws"
	c.Ways = 2
	c.Lookup = dramcache.LookupPredicted
	c.Policy = GWSFactory()
	return c
}

// ACCORD returns the full ACCORD design at the given associativity:
// PWS+GWS for 2 ways, PWS+GWS+SWS(N,2) above.
func ACCORD(ways int) Config {
	c := Default()
	if ways <= 2 {
		c.Name = "accord-2way"
	} else {
		c.Name = fmt.Sprintf("accord-sws(%d,2)", ways)
	}
	c.Ways = ways
	c.Lookup = dramcache.LookupPredicted
	c.Policy = ACCORDFactory()
	return c
}

// MRU returns the MRU-predicted N-way design (Figure 14).
func MRU(ways int) Config {
	c := Default()
	c.Name = fmt.Sprintf("%dway-mru", ways)
	c.Ways = ways
	c.Lookup = dramcache.LookupPredicted
	c.Policy = MRUFactory()
	return c
}

// PartialTag returns the partial-tag-predicted N-way design (Figure 14).
func PartialTag(ways int) Config {
	c := Default()
	c.Name = fmt.Sprintf("%dway-partialtag", ways)
	c.Ways = ways
	c.Lookup = dramcache.LookupPredicted
	c.Policy = PartialTagFactory()
	return c
}

// CACache returns the column-associative baseline (Figure 14).
func CACache() Config {
	c := Default()
	c.Name = "ca-cache"
	c.Backend = "ca"
	return c
}

// LRU2Way returns the 2-way cache with true-LRU replacement, reproducing
// footnote 2's replacement-state bandwidth tax.
func LRU2Way() Config {
	c := Unbiased(2, dramcache.LookupPredicted)
	c.Name = "2way-lru"
	c.LRUReplacement = true
	return c
}

// Banshee returns the page-granularity frequency-tracked organization
// (Banshee, MICRO 2017; see dramcache.Banshee).
func Banshee() Config {
	c := Default()
	c.Name = "banshee"
	c.Backend = "banshee"
	return c
}

// Gemini returns the hybrid set/way-mapped organization (see
// dramcache.Gemini). The associativity is fixed at 4 ways.
func Gemini() Config {
	c := Default()
	c.Name = "gemini"
	c.Backend = "gemini"
	c.Ways = 4
	return c
}

// TDRAM returns the tag-enhanced DRAM organization (single-access hits,
// early miss detection; see dramcache.TDRAM) at the given associativity.
func TDRAM(ways int) Config {
	c := Default()
	c.Name = "tdram"
	if ways != 2 {
		c.Name = fmt.Sprintf("tdram-%dway", ways)
	}
	c.Backend = "tdram"
	c.Ways = ways
	return c
}

// Named resolves an organization by name for CLI use. pip applies only to
// "pws"; ways is ignored by organizations with a fixed associativity.
func Named(org string, ways int, pip float64) (Config, error) {
	switch org {
	case "direct", "direct-mapped", "dm":
		return DirectMapped(), nil
	case "parallel":
		return Parallel(ways), nil
	case "serial":
		return Serial(ways), nil
	case "idealized":
		return Idealized(ways), nil
	case "perfect":
		return PerfectWP(ways), nil
	case "unbiased":
		return Unbiased(ways, dramcache.LookupPredicted), nil
	case "pws":
		return PWS(pip), nil
	case "gws":
		return GWS(), nil
	case "accord":
		return ACCORD(ways), nil
	case "mru":
		return MRU(ways), nil
	case "partialtag", "partial-tag":
		return PartialTag(ways), nil
	case "ca", "ca-cache":
		return CACache(), nil
	case "lru":
		return LRU2Way(), nil
	case "banshee":
		return Banshee(), nil
	case "gemini":
		return Gemini(), nil
	case "tdram":
		if ways < 1 {
			ways = 2
		}
		return TDRAM(ways), nil
	default:
		return Config{}, fmt.Errorf("sim: unknown organization %q", org)
	}
}

// ACCORDSWSK returns ACCORD with the multi-alternate SWS extension the
// paper sketches in Section V-A: each line may reside in its preferred
// way or one of `alternates` hashed alternate ways, so miss confirmation
// costs alternates+1 probes.
func ACCORDSWSK(ways, alternates int) Config {
	c := Default()
	c.Name = fmt.Sprintf("accord-sws(%d,%d)", ways, alternates+1)
	c.Ways = ways
	c.Lookup = dramcache.LookupPredicted
	c.Policy = func(g core.Geometry, seed int64) core.Policy {
		cfg := core.DefaultACCORD(g, seed)
		cfg.UseSWS = true
		cfg.SWSAlternates = alternates
		return core.NewACCORD(cfg)
	}
	return c
}

// ACCORDWithTables returns the 2-way ACCORD design with explicit GWS
// region-table sizes, for the table-size ablation (the paper argues 64
// entries capture most of GWS's benefit).
func ACCORDWithTables(entries int) Config {
	c := Default()
	c.Name = fmt.Sprintf("accord-2way-rit%d", entries)
	c.Ways = 2
	c.Lookup = dramcache.LookupPredicted
	c.Policy = func(g core.Geometry, seed int64) core.Policy {
		cfg := core.DefaultACCORD(g, seed)
		cfg.RITEntries = entries
		cfg.RLTEntries = entries
		return core.NewACCORD(cfg)
	}
	return c
}
