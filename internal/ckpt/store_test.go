package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "0123456789abcdef"
	if _, ok, err := s.Load(key, nil); ok || err != nil {
		t.Fatalf("Load on empty store: ok=%v err=%v", ok, err)
	}
	blob := []byte("warm state bytes")
	if err := s.Save(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(key, nil)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, blob) {
		t.Errorf("Load = %q, want %q", got, blob)
	}
}

// TestStoreLoadIntoBuffer checks that Load reads into the caller's
// buffer when the file fits, replaces it when the file does not, and
// leaves no bytes of an earlier, longer blob in a later one.
func TestStoreLoadIntoBuffer(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	long, short := bytes.Repeat([]byte{0xA5}, 10_000), []byte("short")
	if err := s.Save("long", long); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("short", short); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16)
	got, ok, err := s.Load("long", &buf)
	if err != nil || !ok || !bytes.Equal(got, long) {
		t.Fatalf("Load into a small buffer: ok=%v err=%v len=%d", ok, err, len(got))
	}
	if cap(buf) < len(storeMagic)+len(long) {
		t.Fatalf("buffer not grown: cap %d", cap(buf))
	}
	grown := &buf[:1][0]
	got, ok, err = s.Load("short", &buf)
	if err != nil || !ok || !bytes.Equal(got, short) {
		t.Fatalf("Load into a large buffer: ok=%v err=%v got %q", ok, err, got)
	}
	if &buf[:1][0] != grown || &got[0] != &buf[len(storeMagic)] {
		t.Fatal("Load of a blob that fits did not read into the caller's buffer")
	}
	if _, ok, err := s.Load("absent", &buf); ok || err != nil {
		t.Fatalf("Load of a missing key into a buffer: ok=%v err=%v", ok, err)
	}
}

func TestStoreRejectsBadMagic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("deadbeef", nil); err == nil || ok {
		t.Errorf("bad-magic file accepted: ok=%v err=%v", ok, err)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", `a\b`, "dotted.key"} {
		if err := s.Save(key, nil); err == nil {
			t.Errorf("Save(%q) accepted", key)
		}
		if _, _, err := s.Load(key, nil); err == nil {
			t.Errorf("Load(%q) accepted", key)
		}
	}
}

func TestStoreConcurrentSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte{0x5A}, 1<<16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Save("cafef00d", blob); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				got, ok, err := s.Load("cafef00d", nil)
				if err != nil || !ok || !bytes.Equal(got, blob) {
					t.Errorf("Load mid-write: ok=%v err=%v len=%d", ok, err, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOpenEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") accepted")
	}
}
