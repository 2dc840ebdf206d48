package ckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// storeMagic prefixes every file in a checkpoint store so stray files in
// the directory are rejected before any decoding is attempted.
const storeMagic = "ACKPTST1"

// Store is a content-addressed checkpoint directory: each blob is saved
// under <dir>/<key>.ckpt where the key is a hex digest the caller derives
// from everything that affects the blob (config fields, schema version).
// Saves are atomic (temp file + rename), so a store shared by concurrent
// writers — the experiment session at any Parallelism, or parallel CI
// jobs on a shared cache — never exposes a torn file; last writer wins,
// and with content-addressed keys every writer writes identical bytes.
type Store struct {
	dir string
}

// Open creates the directory if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its file, rejecting keys that could escape the
// directory or collide with temp files.
func (s *Store) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("ckpt: invalid store key %q", key)
	}
	return filepath.Join(s.dir, key+".ckpt"), nil
}

// Load reads the blob stored under key into *buf and returns it: a
// slice of *buf, which the next Load into the same buffer overwrites.
// The buffer is reused when the file fits and replaced by a larger one
// when it does not, so a caller that keeps one buffer per in-flight blob
// reads each file without allocating or zeroing memory for it; a nil buf
// reads into a new buffer. A missing entry reports (nil, false, nil);
// any other failure — unreadable file, bad magic — is an error the
// caller should treat as a cold-run fallback.
func (s *Store) Load(key string, buf *[]byte) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: read %s: %w", p, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: read %s: %w", p, err)
	}
	if buf == nil {
		buf = new([]byte)
	}
	// A replacement keeps a sixty-fourth to spare, so a later, slightly
	// larger blob of the same kind still fits.
	size := int(fi.Size())
	if cap(*buf) < size {
		*buf = make([]byte, 0, size+size/64)
	}
	*buf = (*buf)[:size]
	b := *buf
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, false, fmt.Errorf("ckpt: read %s: %w", p, err)
	}
	if len(b) < len(storeMagic) || string(b[:len(storeMagic)]) != storeMagic {
		return nil, false, fmt.Errorf("ckpt: %s is not a checkpoint file (bad magic)", p)
	}
	return b[len(storeMagic):], true, nil
}

// Save atomically writes blob under key. Concurrent saves of the same
// key are safe: each writes a unique temp file and renames it over the
// destination.
func (s *Store) Save(key string, blob []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*.ckpt-partial")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write([]byte(storeMagic)); err == nil {
		_, err = tmp.Write(blob)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("ckpt: publish %s: %w", p, err)
	}
	return nil
}
