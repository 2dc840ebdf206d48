package dramcache

import (
	"math/rand"
	"testing"

	"accord/internal/memtypes"
)

// BenchmarkFunctionalBatch measures the L4 functional layer on its own:
// FunctionalBatch over 512-event windows of a fixed, uniformly random
// stream spanning 4x the capacity, one writeback in five, on a 1 M-line
// (64 MiB) L4 — the tag-array size of the sampled benchmark workloads,
// far larger than a host core's L2, so the tag loads miss the host's
// caches the way they do on the sampling spine. Each instance is warmed
// off the clock with twice its capacity in events. ns/event is the
// layer's cost per functional operation; it must report 0 allocs/op.
func BenchmarkFunctionalBatch(b *testing.B) {
	const (
		capacityLines = 1 << 20
		capacity      = capacityLines * memtypes.LineSize
		streamLen     = 1 << 22 // long enough that a replayed event has long been evicted
		window        = 512
	)
	r := rand.New(rand.NewSource(1))
	lines := make([]memtypes.LineAddr, streamLen)
	flags := make([]uint8, streamLen)
	for i := range lines {
		lines[i] = memtypes.LineAddr(r.Int63n(4 * capacityLines))
		if r.Intn(5) == 0 {
			flags[i] = FunctionalWrite
		}
	}

	backends := []struct {
		name string
		new  func() (Interface, error)
	}{
		{"nway-accord", func() (Interface, error) {
			const ways = 2
			return build(capacityLines/ways, ways, LookupPredicted, accordPolicy(capacityLines/ways, ways)), nil
		}},
		{"gemini", func() (Interface, error) {
			dev, nvm := devices()
			return NewGemini(capacity, dev, nvm)
		}},
		{"tdram", func() (Interface, error) {
			dev, nvm := devices()
			return NewTDRAM(capacity, 4, dev, nvm)
		}},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			c, err := be.new()
			if err != nil {
				b.Fatal(err)
			}
			const warm = 2 * capacityLines
			c.FunctionalBatch(lines[:warm], flags[:warm])
			pos := warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos+window > streamLen {
					pos = 0
				}
				c.FunctionalBatch(lines[pos:pos+window], flags[pos:pos+window])
				pos += window
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/event")
		})
	}
}
