package core

import (
	"testing"

	"accord/internal/ckpt"
	"accord/internal/memtypes"
	"accord/internal/xrand"
)

// exercise drives a policy through a deterministic access pattern and
// returns a trace of its decisions.
func exercise(p Policy, n int, seed int64) []int {
	rng := xrand.New(seed)
	var out []int
	buf := make([]int, 0, 8)
	for i := 0; i < n; i++ {
		set := uint64(rng.Intn(64))
		tag := uint64(rng.Uint64() % 1024)
		region := memtypes.RegionID(rng.Intn(128))
		switch i % 3 {
		case 0:
			w := p.PredictWay(set, tag, region)
			p.ObserveAccess(set, tag, region, w, i%2 == 0)
			out = append(out, w)
		case 1:
			w := p.InstallWay(set, tag, region)
			p.ObserveInstall(set, tag, region, w)
			out = append(out, w)
		default:
			out = append(out, len(p.CandidateWays(tag, buf[:0])))
		}
	}
	return out
}

// policies returns one instance of every checkpointable policy.
func policies(seed int64) map[string]Policy {
	geom := Geometry{Sets: 64, Ways: 4}
	return map[string]Policy{
		"rand":       NewRand(geom, seed),
		"mru":        NewMRU(geom, seed),
		"partialtag": NewPartialTag(geom, 4, seed),
		"accord":     NewACCORD(DefaultACCORD(geom, seed)),
	}
}

// TestPolicyRoundTrip snapshots a warmed policy, restores it into a
// fresh instance built from a DIFFERENT seed, and requires the
// continuation traces to match exactly — the restore must overwrite
// every decision-relevant bit.
func TestPolicyRoundTrip(t *testing.T) {
	for name, p := range policies(1) {
		t.Run(name, func(t *testing.T) {
			exercise(p, 5000, 11)
			e := ckpt.NewEncoder(0)
			p.(Checkpointable).Snapshot(e)
			blob := e.Finish()

			fresh := policies(99)[name]
			d, err := ckpt.NewDecoderChecked(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.(Checkpointable).Restore(d); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if d.Remaining() != 0 {
				t.Fatalf("%d bytes left after restore", d.Remaining())
			}
			want := exercise(p, 2000, 23)
			got := exercise(fresh, 2000, 23)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("decision %d diverged: %d != %d", i, want[i], got[i])
				}
			}
			if name == "accord" {
				a, b := p.(*ACCORD), fresh.(*ACCORD)
				ah1, am1, al1, an1 := a.TableStats()
				bh1, bm1, bl1, bn1 := b.TableStats()
				if ah1 != bh1 || am1 != bm1 || al1 != bl1 || an1 != bn1 {
					t.Error("RIT/RLT diagnostic counters diverged after restore")
				}
			}
		})
	}
}

// TestPolicyRestoreRejectsBadInput feeds version bumps and truncations
// to every policy Restore; all must error, none may panic.
func TestPolicyRestoreRejectsBadInput(t *testing.T) {
	for name, p := range policies(1) {
		t.Run(name, func(t *testing.T) {
			exercise(p, 1000, 5)
			e := ckpt.NewEncoder(0)
			p.(Checkpointable).Snapshot(e)
			payload := e.Finish()
			payload = payload[:len(payload)-4]

			bad := append([]byte{payload[0] ^ 0x7F}, payload[1:]...)
			if err := policies(1)[name].(Checkpointable).Restore(ckpt.NewDecoder(bad)); err == nil {
				t.Error("version-bumped snapshot accepted")
			}
			for n := 0; n < len(payload); n += 1 + n/16 {
				if err := policies(1)[name].(Checkpointable).Restore(ckpt.NewDecoder(payload[:n])); err == nil {
					t.Errorf("truncation to %d bytes accepted", n)
				}
			}
		})
	}
}

// TestRegionTableLogicalRoundTrip pins the logical LRU codec: recency
// order and contents survive, including subsequent eviction order.
func TestRegionTableLogicalRoundTrip(t *testing.T) {
	a := NewACCORD(DefaultACCORD(Geometry{Sets: 64, Ways: 2}, 3))
	// Fill the RIT past capacity so the LRU chain is nontrivial.
	for i := 0; i < 200; i++ {
		a.rit.insert(memtypes.RegionID(i%90), i%2)
	}
	e := ckpt.NewEncoder(0)
	a.rit.snapshot(e)
	blob := e.Finish()
	d := ckpt.NewDecoder(blob[:len(blob)-4])

	restored := newRegionTable(a.rit.cap)
	if err := restored.restore(d, 2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.len() != a.rit.len() {
		t.Fatalf("len %d != %d", restored.len(), a.rit.len())
	}
	// Same contents and recency: evict everything from both by inserting
	// fresh regions and comparing which old entries survive each step.
	for i := 0; i < a.rit.cap; i++ {
		wa, wb := a.rit.tail, restored.tail
		if a.rit.slots[wa].region != restored.slots[wb].region ||
			a.rit.slots[wa].way != restored.slots[wb].way {
			t.Fatalf("LRU entry %d diverged: (%d,%d) != (%d,%d)", i,
				a.rit.slots[wa].region, a.rit.slots[wa].way,
				restored.slots[wb].region, restored.slots[wb].way)
		}
		a.rit.insert(memtypes.RegionID(1000+i), 0)
		restored.insert(memtypes.RegionID(1000+i), 0)
	}
}

// TestRegionTableRestoreRejectsDuplicates guards the duplicate-region
// validation.
func TestRegionTableRestoreRejectsDuplicates(t *testing.T) {
	e := ckpt.NewEncoder(0)
	e.U8(regionTabVersion)
	e.U32(4) // cap
	e.U32(2) // count
	e.U64(7)
	e.U8(0)
	e.U64(7) // duplicate region
	e.U8(1)
	blob := e.Finish()
	if err := newRegionTable(4).restore(ckpt.NewDecoder(blob[:len(blob)-4]), 2); err == nil {
		t.Error("duplicate region accepted")
	}
}

// TestRegionTableRestoreInPlace restores a table's snapshot over a table
// of the same capacity that holds other entries: none of them may
// survive, the result must snapshot to the source's bytes, and the
// restore must allocate nothing but the decoder it is handed.
func TestRegionTableRestoreInPlace(t *testing.T) {
	src, dst := newRegionTable(64), newRegionTable(64)
	for i := 0; i < 200; i++ {
		src.insert(memtypes.RegionID(i%90), i%2)
		dst.insert(memtypes.RegionID(1000+i%70), 1-i%2)
	}
	e := ckpt.NewEncoder(0)
	src.snapshot(e)
	blob := e.Finish()
	restore := func() {
		if err := dst.restore(ckpt.NewDecoder(blob[:len(blob)-4]), 2); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	restore()
	for r := 1000; r < 1070; r++ {
		if _, ok := dst.lookup(memtypes.RegionID(r)); ok {
			t.Fatalf("region %#x of the table restored over survived the restore", r)
		}
	}
	e = ckpt.NewEncoder(0)
	dst.snapshot(e)
	if string(e.Finish()) != string(blob) {
		t.Fatal("Snapshot(restored) != Snapshot(source)")
	}
	if avg := testing.AllocsPerRun(20, restore); avg > 1 {
		t.Fatalf("restore allocated %.1f times per call, want only its decoder", avg)
	}
}

// copier is the in-memory fork method every bundled policy has.
type copier interface{ CopyFrom(Policy) error }

// policySnapshot encodes a checkpointable policy.
func policySnapshot(p Policy) string {
	e := ckpt.NewEncoder(0)
	p.(Checkpointable).Snapshot(e)
	return string(e.Finish())
}

// TestPolicyCopyFrom copies a policy driven 20k ops into an instance of
// the same kind (built from another seed) driven 5k other ops. The copy
// must snapshot to the source's bytes, then make the same next 10k
// decisions and still snapshot alike, which shows it shares no buffer
// with its source. Once warm, a copy allocates nothing.
func TestPolicyCopyFrom(t *testing.T) {
	for name, a := range policies(1) {
		t.Run(name, func(t *testing.T) {
			b := policies(99)[name]
			exercise(a, 20_000, 11)
			exercise(b, 5_000, 13)
			if err := b.(copier).CopyFrom(a); err != nil {
				t.Fatal(err)
			}
			if policySnapshot(b) != policySnapshot(a) {
				t.Fatal("Snapshot(copy) != Snapshot(source)")
			}
			want := exercise(a, 10_000, 23)
			got := exercise(b, 10_000, 23)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("decision %d diverged after copy: %d != %d", i, got[i], want[i])
				}
			}
			if policySnapshot(b) != policySnapshot(a) {
				t.Fatal("copy and source diverged after the same ops")
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := b.(copier).CopyFrom(a); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("warm CopyFrom allocated %.1f times, want 0", avg)
			}
		})
	}
}

// TestPolicyCopyFromRejectsMismatch covers copies across policy kinds and
// geometries.
func TestPolicyCopyFromRejectsMismatch(t *testing.T) {
	other := Geometry{Sets: 128, Ways: 4}
	for name, p := range policies(1) {
		for srcName, src := range policies(1) {
			if srcName != name {
				if err := p.(copier).CopyFrom(src); err == nil {
					t.Errorf("%s accepted a copy of %s", name, srcName)
				}
			}
		}
		var src Policy
		switch name {
		case "rand":
			src = NewRand(other, 1)
		case "mru":
			src = NewMRU(other, 1)
		case "partialtag":
			src = NewPartialTag(other, 4, 1)
		case "accord":
			cfg := DefaultACCORD(other, 1)
			cfg.RITEntries = 32
			src = NewACCORD(cfg)
		}
		if err := p.(copier).CopyFrom(src); err == nil {
			t.Errorf("%s accepted a copy of another geometry", name)
		}
	}
}

// TestPartialTagRestoreInPlace: a partial-tag restore decodes into the
// policy's own tag and live arrays, so it allocates nothing beyond its
// decoder, however large the L4.
func TestPartialTagRestoreInPlace(t *testing.T) {
	geom := Geometry{Sets: 1 << 12, Ways: 4}
	src, dst := NewPartialTag(geom, 4, 1), NewPartialTag(geom, 4, 2)
	exercise(src, 5000, 11)
	blob := policySnapshot(src)
	restore := func() {
		if err := dst.Restore(ckpt.NewDecoder([]byte(blob[:len(blob)-4]))); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	restore()
	if policySnapshot(dst) != blob {
		t.Fatal("Snapshot(restored) != Snapshot(source)")
	}
	if avg := testing.AllocsPerRun(20, restore); avg > 1 {
		t.Fatalf("restore allocated %.1f times per call, want only its decoder", avg)
	}
}
