package dramcache

import (
	"fmt"
	"sort"

	"accord/internal/core"
	"accord/internal/dram"
	"accord/internal/memtypes"
)

// BackendConfig carries the organization-independent parameters every L4
// backend is built from. Fields a backend has no use for are ignored:
// Ways and Policy only matter to organizations with policy-steered ways,
// page-granularity designs derive their own geometry from CapacityBytes.
type BackendConfig struct {
	CapacityBytes  int64
	Ways           int
	Lookup         Lookup
	LRUReplacement bool
	// Policy is the way-steering/prediction policy for backends that
	// declare UsesPolicy; others must be built with Policy == nil.
	Policy core.Policy
}

// Geometry returns the line-granularity set/way shape the config implies.
func (c BackendConfig) Geometry() core.Geometry {
	return core.Geometry{
		Sets: uint64(c.CapacityBytes / (int64(c.Ways) * memtypes.LineSize)),
		Ways: c.Ways,
	}
}

// Deps are the shared-system resources an L4 backend plugs into: the
// stacked-DRAM device it lives in, the NVM main memory behind it, and the
// machine's physical-frame count (the page-table/TLB cooperation surface
// page-granularity organizations like Banshee size themselves against).
type Deps struct {
	Dev    *dram.Device
	NVM    *dram.Device
	Frames uint64
}

// Backend describes one registered L4 organization.
type Backend struct {
	// Name keys the registry and is the value of sim.Config.Backend.
	Name string
	// UsesPolicy declares that New requires BackendConfig.Policy; the sim
	// layer builds a policy (and includes it in checkpoint fingerprints)
	// only for backends that ask.
	UsesPolicy bool
	// Check, when set, reports the geometry error New would return for
	// cfg on a machine with frames physical frames, without building
	// anything, so a bad design point fails validation instead of
	// assembly. Every bundled backend sets it; New applies the same check.
	Check func(cfg BackendConfig, frames uint64) error
	// New builds an instance. Errors are configuration errors (bad
	// capacity/ways for the organization's geometry, missing policy).
	New func(cfg BackendConfig, deps Deps) (Interface, error)
}

var backends = map[string]Backend{}

// Register adds a backend to the registry; duplicate names panic
// (registration happens in package init, so a duplicate is a programming
// error, not an input error).
func Register(b Backend) {
	if b.Name == "" || b.New == nil {
		panic("dramcache: Register needs a name and a constructor")
	}
	if _, dup := backends[b.Name]; dup {
		panic(fmt.Sprintf("dramcache: backend %q registered twice", b.Name))
	}
	backends[b.Name] = b
}

// GetBackend looks a backend up by name.
func GetBackend(name string) (Backend, bool) {
	b, ok := backends[name]
	return b, ok
}

// HasBackend reports whether name is registered.
func HasBackend(name string) bool {
	_, ok := backends[name]
	return ok
}

// BackendNames returns the registered names, sorted for stable CLI help
// and table-driven test order.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nwayConfig is the set-associative cache an nway backend config builds.
func nwayConfig(cfg BackendConfig) Config {
	return Config{
		CapacityBytes:  cfg.CapacityBytes,
		Ways:           cfg.Ways,
		Lookup:         cfg.Lookup,
		LRUReplacement: cfg.LRUReplacement,
	}
}

func init() {
	Register(Backend{
		Name:       "nway",
		UsesPolicy: true,
		Check:      func(cfg BackendConfig, _ uint64) error { return nwayConfig(cfg).Validate() },
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			if cfg.Policy == nil {
				return nil, fmt.Errorf("dramcache: backend %q requires a policy", "nway")
			}
			c := nwayConfig(cfg)
			if err := c.Validate(); err != nil {
				return nil, err
			}
			return New(c, cfg.Policy, deps.Dev, deps.NVM), nil
		},
	})
	Register(Backend{
		Name:  "ca",
		Check: func(cfg BackendConfig, _ uint64) error { return checkCA(cfg.CapacityBytes) },
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			if err := checkCA(cfg.CapacityBytes); err != nil {
				return nil, err
			}
			return NewCA(cfg.CapacityBytes, deps.Dev, deps.NVM), nil
		},
	})
}
