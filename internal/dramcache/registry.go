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

// NewBackend builds a named backend, returning a descriptive error for
// unknown names or configurations the organization rejects.
func NewBackend(name string, cfg BackendConfig, deps Deps) (Interface, error) {
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("dramcache: unknown backend %q (have %v)", name, BackendNames())
	}
	return b.New(cfg, deps)
}

func init() {
	Register(Backend{
		Name:       "nway",
		UsesPolicy: true,
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			if cfg.Policy == nil {
				return nil, fmt.Errorf("dramcache: backend %q requires a policy", "nway")
			}
			c := Config{
				CapacityBytes:  cfg.CapacityBytes,
				Ways:           cfg.Ways,
				Lookup:         cfg.Lookup,
				LRUReplacement: cfg.LRUReplacement,
			}
			if err := c.Validate(); err != nil {
				return nil, err
			}
			return New(c, cfg.Policy, deps.Dev, deps.NVM), nil
		},
	})
	Register(Backend{
		Name: "ca",
		New: func(cfg BackendConfig, deps Deps) (Interface, error) {
			c := Config{CapacityBytes: cfg.CapacityBytes, Ways: 1}
			if err := c.Validate(); err != nil {
				return nil, err
			}
			if cfg.CapacityBytes/memtypes.LineSize < 2 {
				return nil, fmt.Errorf("dramcache: CA cache needs >= 2 slots")
			}
			return NewCA(cfg.CapacityBytes, deps.Dev, deps.NVM), nil
		},
	})
}
