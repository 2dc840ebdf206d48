package vm

import (
	"bytes"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
)

// fuzzFrames is the frame count of every system FuzzVMRestore decodes
// into: small, so a seed's bitmap is 64 bytes.
const fuzzFrames = 512

// fuzzSystem builds the two-space system FuzzVMRestore decodes into and
// touches pages of each space: pages[0] in space 0, pages[1] in space 1.
func fuzzSystem(pages ...[]memtypes.PageNum) *System {
	s := NewSystem(fuzzFrames, 1)
	sps := []*Space{s.NewSpace(), s.NewSpace()}
	for i, ps := range pages {
		for _, p := range ps {
			sps[i].TranslateLine(p.Line(0))
		}
	}
	return s
}

// restoreFramed restores payload into a fresh system after appending a
// valid CRC-32C, so the bytes reach the decoder whatever they are.
func restoreFramed(payload []byte) (*System, error) {
	e := ckpt.NewEncoder(len(payload) + 4)
	e.Raw(payload)
	d, err := ckpt.NewDecoderChecked(e.Finish())
	if err != nil {
		return nil, err
	}
	s := fuzzSystem()
	return s, s.Restore(d)
}

// payloadOf returns s's snapshot without its CRC.
func payloadOf(s *System) []byte {
	e := ckpt.NewEncoder(0)
	s.Snapshot(e)
	blob := e.Finish()
	return blob[:len(blob)-4]
}

// FuzzVMRestore holds System.Restore to its contract on small inputs:
// whatever the payload, it returns an error or succeeds, and never
// panics; and a restore that succeeds is a fixed point, its system's
// Snapshot restoring into a fresh system that snapshots to the same
// bytes. The seeds are snapshots of a 512-frame, two-space system with
// no page table, with two leaves in one space, and with a leaf in each,
// re-framed with a valid checksum: 5–13 KB, most of it the allocator's
// RNG state and the 4 KB leaves, so a short run spends its time
// executing, not minimizing.
func FuzzVMRestore(f *testing.F) {
	for _, pages := range [][][]memtypes.PageNum{
		nil,
		{{3, 4, 700}},
		{{1}, {1 << 20, 1<<20 + 1}},
	} {
		payload := payloadOf(fuzzSystem(pages...))
		if _, err := restoreFramed(payload); err != nil {
			f.Fatalf("seed does not restore: %v", err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := restoreFramed(payload)
		if err != nil {
			return
		}
		once := payloadOf(s)
		again, err := restoreFramed(once)
		if err != nil {
			t.Fatalf("a restored system's snapshot does not restore: %v", err)
		}
		if !bytes.Equal(payloadOf(again), once) {
			t.Fatal("snapshot, restore, snapshot is not a fixed point")
		}
	})
}
