package sim

import (
	"os"
	"testing"

	"accord/internal/dramcache"
)

// backendFilterSkip honors ACCORD_BACKEND the same way the dramcache
// conformance suite does: set, it narrows a per-backend test matrix to
// one backend so the per-backend CI jobs split the -race cost.
func backendFilterSkip(t *testing.T, backend string) bool {
	t.Helper()
	only := os.Getenv("ACCORD_BACKEND")
	if only == "" {
		return false
	}
	if !dramcache.HasBackend(only) {
		t.Fatalf("ACCORD_BACKEND=%q is not a registered backend (have %v)",
			only, dramcache.BackendNames())
	}
	return backend != only
}

// backendCases is one configuration per registered L4 organization,
// named by its registry name. Small scale keeps the matrices fast.
func backendCases() []struct {
	name string
	cfg  Config
} {
	shrink := func(name string, cfg Config) struct {
		name string
		cfg  Config
	} {
		cfg.Scale = 8192
		cfg.DisableAdaptiveBudgets = true
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 300_000
		cfg.Seed = 1
		return struct {
			name string
			cfg  Config
		}{name, cfg}
	}
	return []struct {
		name string
		cfg  Config
	}{
		shrink("nway", ACCORD(2)),
		shrink("ca", CACache()),
		shrink("banshee", Banshee()),
		shrink("gemini", Gemini()),
		shrink("tdram", TDRAM(2)),
	}
}
