package xrand

import (
	"testing"

	"accord/internal/ckpt"
)

func TestSnapshotRestoreStream(t *testing.T) {
	r := New(42)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	e := ckpt.NewEncoder(0)
	r.Snapshot(e)
	blob := e.Finish()

	want := make([]uint64, 64)
	for i := range want {
		want[i] = r.Uint64()
	}

	fresh := New(7) // different seed: restore must fully overwrite
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("draw %d: restored stream %#x != original %#x", i, got, w)
		}
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	r := New(1)
	e := ckpt.NewEncoder(0)
	r.Snapshot(e)
	blob := e.Finish()
	payload := blob[:len(blob)-4]

	// Version mismatch.
	bad := append([]byte{payload[0] + 1}, payload[1:]...)
	if err := New(1).Restore(ckpt.NewDecoder(bad)); err == nil {
		t.Error("version-bumped snapshot accepted")
	}

	// Out-of-range cursors.
	c := append([]byte(nil), payload...)
	c[1], c[2] = 0xFF, 0xFF // tap >= rngLen
	if err := New(1).Restore(ckpt.NewDecoder(c)); err == nil {
		t.Error("out-of-range cursor accepted")
	}

	// Truncations never panic and always error.
	for n := 0; n < len(payload); n += 97 {
		if err := New(1).Restore(ckpt.NewDecoder(payload[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestValueCopyMatchesRestore pins the property in-memory forks rely on:
// a value copy of a Rand is indistinguishable from restoring its
// snapshot, both in the bytes it snapshots to and in the stream it
// continues with.
func TestValueCopyMatchesRestore(t *testing.T) {
	src := New(42)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	e := ckpt.NewEncoder(0)
	src.Snapshot(e)
	blob := e.Finish()

	restored := New(7)
	d, err := ckpt.NewDecoderChecked(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(d); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	copied := New(9)
	*copied = *src

	e = ckpt.NewEncoder(0)
	copied.Snapshot(e)
	if string(e.Finish()) != string(blob) {
		t.Fatal("value copy snapshots differently from its source")
	}
	for i := 0; i < 2000; i++ {
		if a, b := copied.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("draw %d: copy %#x != restore %#x", i, a, b)
		}
	}
}
