package workloads

import (
	"fmt"
	"sync"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
)

// The trace cache memoizes generated event streams. A stream's event
// content is a pure function of (spec, cacheLines, cores, seed) — it is
// independent of simulated timing — so when a sweep runs the same
// workload through many configurations, the stride-walk + RNG +
// dependence-sampling cost of generation only needs to be paid once. The
// first consumer of a stream records it into flat struct-of-arrays
// chunks; every later consumer (and every later position of the same
// consumer) replays the recording through a Cursor whose Next is a
// pointer-bump load.
//
// Recording is lazy: runs stop on instruction targets, not event counts,
// so nobody knows a stream's length up front. A cursor that runs off the
// recorded end extends the shared buffer under the trace mutex by
// resuming the underlying generator, which lives exactly at the recorded
// frontier. Concurrent cursors therefore share one recording instead of
// racing to duplicate it: the first to need more events generates them,
// the rest replay.
//
// Concurrency model: all chunk-list and frontier state is guarded by
// trace.mu, which cursors take only on the refill slow path (once per
// cached run of events). The chunk arrays themselves are written once,
// before the frontier that publishes them advances, and the publishing
// and the reader's slice both happen under the same mutex — so the
// lock-free fast path only ever reads events whose writes it already
// synchronized with.

const (
	// chunkEvents is the fixed chunk capacity. It must be a power of two:
	// chunk lookup is a divide by constant, and the generator-state
	// snapshot stored at each chunk boundary keys off pos/chunkEvents.
	chunkEvents = 1 << 14

	// extendBatch bounds how far past a cursor's need one extension
	// generates: large enough to amortize the lock, small enough that a
	// short run does not over-record the stream.
	extendBatch = 1 << 10

	// DefaultTraceCacheBytes is the byte budget used when none is given:
	// roomy enough for a full-suite sweep at experiment scales, small
	// enough that a giant session cannot grow without bound.
	DefaultTraceCacheBytes = 1 << 30
)

// traceChunk is one fixed-capacity segment of a recorded stream, stored
// struct-of-arrays so replay streams through memory linearly.
type traceChunk struct {
	gaps  []int32
	lines []memtypes.LineAddr
	flags []uint8 // FlagWrite, FlagDep
	// state is the generator's snapshot taken exactly at this chunk's
	// first event, before any of its events were generated. Cursor
	// snapshots at arbitrary positions restore this state into a scratch
	// generator and roll it forward at most chunkEvents steps.
	state []byte
}

// chunkBytes approximates a chunk's memory footprint for the budget.
func chunkBytes(c *traceChunk) int64 {
	return int64(len(c.gaps))*4 + int64(len(c.lines))*8 + int64(len(c.flags)) + int64(len(c.state))
}

// trace is one shared recording: the chunks recorded so far plus the
// generator parked at the recording frontier.
type trace struct {
	// Construction parameters, needed to build the scratch generator.
	// Immutable after creation.
	spec       Spec
	cacheLines uint64
	cores      int
	seed       int64

	cache *TraceCache // for byte accounting; nil in standalone tests
	key   string

	mu     sync.Mutex
	chunks []*traceChunk
	total  int64      // events recorded; chunks[total/chunkEvents] holds the frontier
	gen    *generator // positioned exactly at event total
	// scratch is where cursor restores validate their stream section and
	// snapshots behind the frontier replay to their position, so neither
	// builds a generator per call. Built on first use; see scratchLocked.
	scratch *generator
}

// newTrace parks a fresh generator at event zero; nothing is recorded
// until a cursor asks.
func newTrace(spec Spec, cacheLines uint64, cores int, seed int64) *trace {
	return &trace{
		spec:       spec,
		cacheLines: cacheLines,
		cores:      cores,
		seed:       seed,
		gen:        newGenerator(spec, cacheLines, cores, seed),
	}
}

// extendLocked records events until total > pos, in batches. Must be
// called with t.mu held.
func (t *trace) extendLocked(pos int64) {
	for t.total <= pos {
		k := int(t.total / chunkEvents)
		if k == len(t.chunks) {
			c := &traceChunk{
				gaps:  make([]int32, chunkEvents),
				lines: make([]memtypes.LineAddr, chunkEvents),
				flags: make([]uint8, chunkEvents),
			}
			e := ckpt.NewEncoder(8 << 10)
			t.gen.Snapshot(e)
			c.state = e.Finish()
			t.chunks = append(t.chunks, c)
			if t.cache != nil {
				t.cache.noteGrow(t.key, chunkBytes(c))
			}
		}
		c := t.chunks[k]
		off := int(t.total - int64(k)*chunkEvents)
		n := min(chunkEvents-off, extendBatch)
		for i := off; i < off+n; i++ {
			c.gaps[i], c.lines[i], c.flags[i] = t.gen.draw()
		}
		t.total += int64(n)
	}
}

// scratchLocked returns the trace's scratch generator, building it on
// first use. Every use starts with a Restore, which sets all of its
// mutable state. Must be called with t.mu held.
func (t *trace) scratchLocked() *generator {
	if t.scratch == nil {
		t.scratch = newGenerator(t.spec, t.cacheLines, t.cores, t.seed)
	}
	return t.scratch
}

// snapshotAt encodes the generator state after pos events — the exact
// bytes a live generator that produced pos events would emit. The frontier
// generator serves the common case (snapshot at the recorded end); other
// positions restore the nearest chunk-boundary state into the scratch
// generator and roll it forward, at most chunkEvents steps. A generator
// encodes to the same length at every position, so a measurer is served
// by the frontier generator without extending or replaying.
func (t *trace) snapshotAt(e *ckpt.Encoder, pos int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Measuring() {
		t.gen.Snapshot(e)
		return
	}
	if pos > t.total {
		t.extendLocked(pos - 1) // leaves total >= pos
	}
	if pos == t.total {
		t.gen.Snapshot(e)
		return
	}
	k := int(pos / chunkEvents)
	tmp := t.scratchLocked()
	if err := tmp.Restore(ckpt.NewDecoder(t.chunks[k].state)); err != nil {
		// The boundary states are written by this process from a healthy
		// generator; failing to decode one is a programming error.
		panic(fmt.Sprintf("workloads: corrupt chunk-boundary state: %v", err))
	}
	for i := int64(k) * chunkEvents; i < pos; i++ {
		tmp.draw()
	}
	tmp.Snapshot(e)
}

// Cursor is a read-only replay position over a shared trace. The fast
// path serves events from a cached window of the current chunk; crossing
// a window boundary refills under the trace mutex, extending the
// recording when the cursor is the first to reach a position. A Cursor is
// not safe for concurrent use, but any number of cursors may replay the
// same trace from different goroutines.
type Cursor struct {
	// Cached replay window; idx indexes all three slices in lockstep.
	idx   int
	gaps  []int32
	lines []memtypes.LineAddr
	flags []uint8

	pos int64 // global event position
	t   *trace
}

// Next implements Stream. The common case is a bounds check and three
// array loads; it performs no allocation and takes no lock.
func (c *Cursor) Next(ev *Event) {
	i := c.idx
	if i >= len(c.gaps) {
		c.refill()
		i = 0
	}
	ev.Gap = c.gaps[i]
	ev.Line = c.lines[i]
	f := c.flags[i]
	ev.Write = f&1 != 0
	ev.Dep = f&2 != 0
	c.idx = i + 1
	c.pos++
}

// refill re-points the cached window at the chunk containing pos,
// recording more of the stream first when pos is at or past the frontier.
//
//go:noinline
func (c *Cursor) refill() {
	t := c.t
	t.mu.Lock()
	if t.total <= c.pos {
		t.extendLocked(c.pos)
	}
	k := int(c.pos / chunkEvents)
	ch := t.chunks[k]
	off := int(c.pos - int64(k)*chunkEvents)
	fill := int(min(t.total-int64(k)*chunkEvents, chunkEvents))
	c.gaps = ch.gaps[off:fill]
	c.lines = ch.lines[off:fill]
	c.flags = ch.flags[off:fill]
	c.idx = 0
	t.mu.Unlock()
}

// Pos returns the number of events the cursor has replayed.
func (c *Cursor) Pos() int64 { return c.pos }

// Window exposes the cursor's cached replay window without consuming it,
// refilling (and extending the shared recording) when the window is
// empty. The three subslices index in lockstep starting at the cursor's
// current position and are never empty; Consume advances past events the
// caller has processed. The slices alias the shared chunk storage —
// callers must treat them as read-only — and stay valid until the next
// Next, Consume, or Restore call. Together with Consume this is the
// batch-granular replay path: a consumer can process a whole window with
// no per-event interface dispatch and commit it in one step.
func (c *Cursor) Window() (gaps []int32, lines []memtypes.LineAddr, flags []uint8) {
	if c.idx >= len(c.gaps) {
		c.refill()
	}
	i := c.idx
	return c.gaps[i:], c.lines[i:], c.flags[i:]
}

// Consume advances the cursor past the first n events of the last Window.
// n must not exceed that window's length; the cursor does not check.
func (c *Cursor) Consume(n int) {
	c.idx += n
	c.pos += int64(n)
}

// Snapshot implements Checkpointer. The encoding is byte-identical to the
// underlying generator's snapshot at the same position, so warm-state
// checkpoints written by replay-backed runs restore into generator-backed
// runs and vice versa.
func (c *Cursor) Snapshot(e *ckpt.Encoder) {
	c.t.snapshotAt(e, c.pos)
}

// Restore implements Checkpointer. It accepts a generator-format snapshot
// and adopts its event count as the replay position; the RNG and
// component state it carries are redundant with the recording (the trace
// regenerates them on demand for later snapshots) and only validated, in
// the trace's scratch generator.
func (c *Cursor) Restore(d *ckpt.Decoder) error {
	t := c.t
	t.mu.Lock()
	tmp := t.scratchLocked()
	err := tmp.Restore(d)
	pos := tmp.count
	t.mu.Unlock()
	if err != nil {
		return err
	}
	c.pos = pos
	c.idx = 0
	c.gaps, c.lines, c.flags = nil, nil, nil
	return nil
}

// cacheEntry pairs a trace with its accounting state.
type cacheEntry struct {
	tr      *trace
	bytes   int64
	lastUse uint64
}

// TraceCache shares recorded streams across every simulation that asks
// for the same (spec, cacheLines, cores, seed) stream. It is safe for
// concurrent use; a typical deployment is one cache per exp.Session,
// shared by the whole worker pool.
//
// The cache holds at most budget bytes of recordings. When an extension
// pushes it over, least-recently-used traces are dropped; cursors already
// replaying a dropped trace keep working (the trace keeps its own
// generator and can still extend), the cache just stops accounting for it
// and a future request for the same stream re-records. Eviction therefore
// bounds steady-state footprint, not the instantaneous peak while old
// cursors drain.
type TraceCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	clock   uint64
	hits    uint64
	misses  uint64
	evicted uint64
	entries map[string]*cacheEntry
}

// NewTraceCache builds a cache with the given byte budget;
// non-positive budgets select DefaultTraceCacheBytes.
func NewTraceCache(budgetBytes int64) *TraceCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultTraceCacheBytes
	}
	return &TraceCache{budget: budgetBytes, entries: make(map[string]*cacheEntry)}
}

// traceKey identifies a stream by everything its events depend on.
func traceKey(spec Spec, cacheLines uint64, cores int, seed int64) string {
	return fmt.Sprintf("%s|%g|%g|%g|%v|%d|%d|%d",
		spec.Name, spec.MPKI, spec.WriteFrac, spec.DepFrac, spec.Components,
		cacheLines, cores, seed)
}

// Stream returns a fresh replay cursor (at event zero) over the shared
// recording for the given stream identity, creating the recording on
// first use. The returned cursor produces the exact event sequence
// NewStream(spec, cacheLines, cores, seed) would.
func (tc *TraceCache) Stream(spec Spec, cacheLines uint64, cores int, seed int64) *Cursor {
	key := traceKey(spec, cacheLines, cores, seed)
	tc.mu.Lock()
	ent, ok := tc.entries[key]
	if !ok {
		ent = &cacheEntry{tr: newTrace(spec, cacheLines, cores, seed)}
		ent.tr.cache = tc
		ent.tr.key = key
		tc.entries[key] = ent
		tc.misses++
	} else {
		tc.hits++
	}
	tc.clock++
	ent.lastUse = tc.clock
	tr := ent.tr
	tc.mu.Unlock()
	return &Cursor{t: tr}
}

// Source adapts the cache to Workload.Source for one workload: per-core
// cursors over specs, with the same per-core seed derivation sim.New
// applies to generator-backed streams.
func (tc *TraceCache) Source(specs []Spec, cacheLines uint64, seed int64) func(core int) Stream {
	cores := len(specs)
	own := make([]Spec, cores)
	copy(own, specs)
	return func(core int) Stream {
		return tc.Stream(own[core], cacheLines, cores, StreamSeed(seed, core))
	}
}

// noteGrow charges a chunk's bytes to its trace and evicts cold traces if
// the budget is exceeded. Called from extendLocked with the trace mutex
// held; the lock order is always trace.mu -> tc.mu, never the reverse.
func (tc *TraceCache) noteGrow(key string, delta int64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ent, ok := tc.entries[key]
	if !ok {
		// Already evicted while still growing; it pays its own way now.
		return
	}
	ent.bytes += delta
	tc.used += delta
	tc.clock++
	ent.lastUse = tc.clock
	for tc.used > tc.budget && len(tc.entries) > 1 {
		var victim string
		var oldest uint64 = ^uint64(0)
		for k, e := range tc.entries {
			if k != key && e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		if victim == "" {
			return
		}
		tc.used -= tc.entries[victim].bytes
		delete(tc.entries, victim)
		tc.evicted++
	}
}

// Stats reports the cache's lifetime counters: resident traces and bytes,
// stream requests served from an existing recording (hits) versus ones
// that created a recording (misses), and evicted recordings.
func (tc *TraceCache) Stats() (traces int, bytes int64, hits, misses, evicted uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.entries), tc.used, tc.hits, tc.misses, tc.evicted
}
