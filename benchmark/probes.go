package main

import (
	"fmt"
	"sync"
	"time"

	"accord/internal/ckpt"
	"accord/internal/core"
	"accord/internal/cpu"
	"accord/internal/dramcache"
	"accord/internal/memtypes"
	"accord/internal/metrics"
	"accord/internal/sim"
	"accord/internal/workloads"
)

// Layer probes for the traced run. Each probe wraps one public entry point
// of a simulator layer — an L4 backend built through the dramcache
// registry, a way policy built through sim.Config.Policy, a workload stream
// built through workloads.Workload.Source — counts every call exactly, and
// times a 1-in-64 xorshift sample of the per-event calls. Calls that move a
// whole batch (FunctionalBatch, Window) and snapshot/restore calls are
// timed every time. A probe forwards every optional interface its wrapped
// value implements, so forks, the batch spine and checkpointing take the
// same code paths as in an untraced run and produce identical Results. The
// one path that changes is the core-to-L4 dispatch: sim falls back to its
// generic adapter for a backend type it does not know, a cost the traced
// run's overhead includes.

// probePrefix names the wrapper registered for each L4 backend.
const probePrefix = "bench-"

// sampleMask selects one call in 64 for timing.
const sampleMask = 63

// clockBase anchors now(); time.Since on a monotonic base reads only the
// runtime's monotonic clock.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// timerCost is the median cost of one now() pair, subtracted from every
// timed span so the probe's own clock reads do not count as layer time.
var timerCost = calibrateTimer()

func calibrateTimer() int64 {
	d := make([]float64, 4096)
	for i := range d {
		t0 := now()
		d[i] = float64(now() - t0)
	}
	return int64(median(d))
}

// tally accumulates one probe's calls and timings.
type tally struct {
	calls     int64 // calls in the sampled population
	sampled   int64 // of which timed and kept (see maxSampleNS)
	sampledNS int64
	fixedNS   int64 // calls timed every time
	rng       uint64
}

// begin counts a sampled-population call and reports whether to time it.
func (t *tally) begin() (int64, bool) {
	t.calls++
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng&sampleMask != 0 {
		return 0, false
	}
	return now(), true
}

// maxSampleNS bounds a sampled per-event call. No such call takes this
// long on its own; a span that does was descheduled (goroutines outnumber
// processors in sampled runs, and the scheduler slices at 10 ms), and at
// 1-in-64 sampling one such span would add 64 slices to the estimate, so
// it is left out of the sample.
const maxSampleNS = 100_000

// end closes a sampled span opened by begin.
func (t *tally) end(t0 int64) {
	if d := span(t0); d <= maxSampleNS {
		t.sampled++
		t.sampledNS += d
	}
}

// span returns the time since t0 net of the clock-read cost.
func span(t0 int64) int64 {
	d := now() - t0 - timerCost
	if d < 0 {
		return 0
	}
	return d
}

// totalNS extrapolates the sampled spans to every call and adds the
// always-timed ones.
func (t *tally) totalNS() float64 {
	total := float64(t.fixedNS)
	if t.sampled > 0 {
		total += float64(t.sampledNS) * float64(t.calls) / float64(t.sampled)
	}
	return total
}

// ledger collects every probe built during one traced run. The dramcache
// registry is process-global, so the ledger is too; probes register under
// its mutex because sampled runs build fork systems on worker goroutines.
type ledger struct {
	mu       sync.Mutex
	l4       []*l4Probe
	policies []*policyProbe
	streams  []*streamProbe
}

var probes ledger

func (l *ledger) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.l4, l.policies, l.streams = nil, nil, nil
}

// layerTotals is the ledger summed over every probe instance.
type layerTotals struct {
	streamCalls, streamEvents int64
	streamNS                  float64

	policyCalls int64
	policyNS    float64

	l4Detailed, l4Functional, l4Batches int64
	l4NS                                float64 // includes the policy calls made inside
	snapshotNS, restoreNS               float64
}

// totals sums the ledger. Call it only after the traced run has joined
// every goroutine that used a probe.
func (l *ledger) totals() layerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t layerTotals
	for _, p := range l.streams {
		t.streamCalls += p.t.calls + p.windows
		t.streamEvents += p.t.calls + p.consumed
		t.streamNS += p.t.totalNS()
	}
	for _, p := range l.policies {
		t.policyCalls += p.t.calls
		t.policyNS += p.t.totalNS()
	}
	for _, p := range l.l4 {
		t.l4Detailed += p.detailed
		t.l4Functional += p.t.calls - p.detailed + p.batchOps
		t.l4Batches += p.batches
		t.l4NS += p.t.totalNS()
		t.snapshotNS += float64(p.snapshotNS)
		t.restoreNS += float64(p.restoreNS)
	}
	return t
}

// registerBackendProbes adds a "bench-<name>" backend wrapping each
// registered L4 organization.
func registerBackendProbes() {
	for _, name := range dramcache.BackendNames() {
		b, _ := dramcache.GetBackend(name)
		dramcache.Register(dramcache.Backend{
			Name:       probePrefix + name,
			UsesPolicy: b.UsesPolicy,
			New: func(cfg dramcache.BackendConfig, deps dramcache.Deps) (dramcache.Interface, error) {
				in, err := b.New(cfg, deps)
				if err != nil {
					return nil, err
				}
				p := &l4Probe{in: in}
				p.t.rng = 0x9e3779b97f4a7c15
				probes.mu.Lock()
				probes.l4 = append(probes.l4, p)
				probes.mu.Unlock()
				return p, nil
			},
		})
	}
}

func init() { registerBackendProbes() }

// probedConfig returns cfg with its L4 backend and way policy wrapped.
func probedConfig(cfg sim.Config) sim.Config {
	spec, ok := dramcache.GetBackend(cfg.BackendName())
	if !ok {
		panic(fmt.Sprintf("benchmark: unknown L4 backend %q", cfg.BackendName()))
	}
	cfg.Backend = probePrefix + cfg.BackendName()
	if spec.UsesPolicy {
		inner := cfg.Policy
		if inner == nil {
			inner = sim.RandFactory() // sim.New's default
		}
		cfg.Policy = func(g core.Geometry, seed int64) core.Policy { return wrapPolicy(inner(g, seed)) }
	}
	return cfg
}

// probedWorkload returns wl with every per-core stream wrapped. A
// generator-fed workload gets the exact stream sim.New would build.
func probedWorkload(wl workloads.Workload, cfg sim.Config) workloads.Workload {
	base := wl.Source
	if base == nil {
		specs, anchor := wl.Specs, cfg.AnchorLines()
		base = func(core int) workloads.Stream {
			return workloads.NewStream(specs[core], anchor, cfg.Cores, workloads.StreamSeed(cfg.Seed, core))
		}
	}
	wl.Source = func(core int) workloads.Stream { return wrapStream(base(core)) }
	return wl
}

// l4Probe wraps one L4 backend instance.
type l4Probe struct {
	in dramcache.Interface
	t  tally // AccessRead, Writeback and their functional twins

	detailed              int64
	batches, batchOps     int64
	snapshotNS, restoreNS int64
}

func (p *l4Probe) Name() string { return p.in.Name() }

func (p *l4Probe) AccessRead(at int64, line memtypes.LineAddr) dramcache.ReadResult {
	p.detailed++
	if t0, ok := p.t.begin(); ok {
		r := p.in.AccessRead(at, line)
		p.t.end(t0)
		return r
	}
	return p.in.AccessRead(at, line)
}

func (p *l4Probe) Writeback(at int64, line memtypes.LineAddr) int64 {
	p.detailed++
	if t0, ok := p.t.begin(); ok {
		r := p.in.Writeback(at, line)
		p.t.end(t0)
		return r
	}
	return p.in.Writeback(at, line)
}

func (p *l4Probe) AccessReadFunctional(line memtypes.LineAddr) (uint8, bool) {
	if t0, ok := p.t.begin(); ok {
		way, hit := p.in.AccessReadFunctional(line)
		p.t.end(t0)
		return way, hit
	}
	return p.in.AccessReadFunctional(line)
}

func (p *l4Probe) WritebackFunctional(line memtypes.LineAddr) {
	if t0, ok := p.t.begin(); ok {
		p.in.WritebackFunctional(line)
		p.t.end(t0)
		return
	}
	p.in.WritebackFunctional(line)
}

func (p *l4Probe) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	p.batches++
	p.batchOps += int64(len(lines))
	t0 := now()
	p.in.FunctionalBatch(lines, flags)
	p.t.fixedNS += span(t0)
}

func (p *l4Probe) Snapshot(e *ckpt.Encoder) error {
	t0 := now()
	err := p.in.Snapshot(e)
	d := span(t0)
	p.snapshotNS += d
	p.t.fixedNS += d
	return err
}

func (p *l4Probe) Restore(d *ckpt.Decoder) error {
	t0 := now()
	err := p.in.Restore(d)
	dt := span(t0)
	p.restoreNS += dt
	p.t.fixedNS += dt
	return err
}

func (p *l4Probe) Contains(line memtypes.LineAddr) (int, bool) { return p.in.Contains(line) }
func (p *l4Probe) Stats() *dramcache.Stats                     { return p.in.Stats() }
func (p *l4Probe) ResetStats()                                 { p.in.ResetStats() }
func (p *l4Probe) StorageBytes() int64                         { return p.in.StorageBytes() }
func (p *l4Probe) CheckInvariants() error                      { return p.in.CheckInvariants() }
func (p *l4Probe) RegisterMetrics(r *metrics.Registry, prefix string) {
	p.in.RegisterMetrics(r, prefix)
}

// policyProbe wraps one way policy. Its calls happen inside L4 calls, so
// the L4 layer's self time is the L4 probe's time minus this one's.
type policyProbe struct {
	in core.Policy
	t  tally
}

// ckptPolicyProbe adds the snapshot methods of a core.Checkpointable
// policy; a policy without them must stay without them, or the L4 would
// try to checkpoint it.
type ckptPolicyProbe struct {
	*policyProbe
	cp core.Checkpointable
}

func wrapPolicy(in core.Policy) core.Policy {
	p := &policyProbe{in: in}
	p.t.rng = 0xd1b54a32d192ed03
	probes.mu.Lock()
	probes.policies = append(probes.policies, p)
	probes.mu.Unlock()
	if cp, ok := in.(core.Checkpointable); ok {
		return ckptPolicyProbe{policyProbe: p, cp: cp}
	}
	return p
}

func (p *policyProbe) Name() string        { return p.in.Name() }
func (p *policyProbe) StorageBytes() int64 { return p.in.StorageBytes() }

// RegisterMetrics forwards to the policy's own metrics when it has any
// (the L4 registers a policy's metrics through this optional method).
func (p *policyProbe) RegisterMetrics(r *metrics.Registry, prefix string) {
	if src, ok := p.in.(interface {
		RegisterMetrics(*metrics.Registry, string)
	}); ok {
		src.RegisterMetrics(r, prefix)
	}
}

func (p *policyProbe) CandidateWays(tag uint64, buf []int) []int {
	if t0, ok := p.t.begin(); ok {
		r := p.in.CandidateWays(tag, buf)
		p.t.end(t0)
		return r
	}
	return p.in.CandidateWays(tag, buf)
}

func (p *policyProbe) PredictWay(set, tag uint64, region memtypes.RegionID) int {
	if t0, ok := p.t.begin(); ok {
		r := p.in.PredictWay(set, tag, region)
		p.t.end(t0)
		return r
	}
	return p.in.PredictWay(set, tag, region)
}

func (p *policyProbe) InstallWay(set, tag uint64, region memtypes.RegionID) int {
	if t0, ok := p.t.begin(); ok {
		r := p.in.InstallWay(set, tag, region)
		p.t.end(t0)
		return r
	}
	return p.in.InstallWay(set, tag, region)
}

func (p *policyProbe) ObserveAccess(set, tag uint64, region memtypes.RegionID, way int, hit bool) {
	if t0, ok := p.t.begin(); ok {
		p.in.ObserveAccess(set, tag, region, way, hit)
		p.t.end(t0)
		return
	}
	p.in.ObserveAccess(set, tag, region, way, hit)
}

func (p *policyProbe) ObserveInstall(set, tag uint64, region memtypes.RegionID, way int) {
	if t0, ok := p.t.begin(); ok {
		p.in.ObserveInstall(set, tag, region, way)
		p.t.end(t0)
		return
	}
	p.in.ObserveInstall(set, tag, region, way)
}

func (p *policyProbe) FilterMiss(set, tag uint64) bool {
	if t0, ok := p.t.begin(); ok {
		r := p.in.FilterMiss(set, tag)
		p.t.end(t0)
		return r
	}
	return p.in.FilterMiss(set, tag)
}

func (p ckptPolicyProbe) Snapshot(e *ckpt.Encoder) {
	t0 := now()
	p.cp.Snapshot(e)
	p.t.fixedNS += span(t0)
}

func (p ckptPolicyProbe) Restore(d *ckpt.Decoder) error {
	t0 := now()
	err := p.cp.Restore(d)
	p.t.fixedNS += span(t0)
	return err
}

// streamProbe wraps one core's workload stream. Every stream the
// benchmark builds (generator or trace-cache cursor) is a
// workloads.Checkpointer; windowStreamProbe adds the batch window of
// streams that have one.
type streamProbe struct {
	in       workloads.Stream
	cp       workloads.Checkpointer
	t        tally // Next
	windows  int64
	consumed int64
}

type windowStreamProbe struct {
	*streamProbe
	ws cpu.WindowStream
}

func wrapStream(in workloads.Stream) workloads.Stream {
	cp, ok := in.(workloads.Checkpointer)
	if !ok {
		panic(fmt.Sprintf("benchmark: stream %T is not a workloads.Checkpointer", in))
	}
	p := &streamProbe{in: in, cp: cp}
	p.t.rng = 0x94d049bb133111eb
	probes.mu.Lock()
	probes.streams = append(probes.streams, p)
	probes.mu.Unlock()
	if ws, ok := in.(cpu.WindowStream); ok {
		return windowStreamProbe{streamProbe: p, ws: ws}
	}
	return p
}

func (p *streamProbe) Next(ev *workloads.Event) {
	if t0, ok := p.t.begin(); ok {
		p.in.Next(ev)
		p.t.end(t0)
		return
	}
	p.in.Next(ev)
}

func (p *streamProbe) Snapshot(e *ckpt.Encoder) {
	t0 := now()
	p.cp.Snapshot(e)
	p.t.fixedNS += span(t0)
}

func (p *streamProbe) Restore(d *ckpt.Decoder) error {
	t0 := now()
	err := p.cp.Restore(d)
	p.t.fixedNS += span(t0)
	return err
}

func (p windowStreamProbe) Window() ([]int32, []memtypes.LineAddr, []uint8) {
	p.windows++
	t0 := now()
	g, l, f := p.ws.Window()
	p.t.fixedNS += span(t0)
	return g, l, f
}

func (p windowStreamProbe) Consume(n int) {
	p.consumed += int64(n)
	p.ws.Consume(n)
}
