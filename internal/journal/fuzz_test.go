package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load, which reads journals back after a
// crash: torn and corrupt tails, damaged middles and non-journals must be
// errors, never panics. Whatever Load accepts, the ValidBytes prefix that
// OpenAppend keeps must load again to the same cells.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	w, err := Create(path, "fp-1")
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range [][]byte{[]byte("alpha"), {0x00, 0xff}, nil} {
		if err := w.Append("fig12", i, 1, p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7]) // torn final record
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-4] ^= 0x20 // final record's checksum no longer matches
	f.Add(corrupt)
	f.Add(append(corrupt, good[len(good)/2:]...)) // damage followed by more lines
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Load(path)
		if err != nil {
			return
		}
		if l.ValidBytes <= 0 || l.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes = %d for a %d-byte file", l.ValidBytes, len(data))
		}
		if err := os.WriteFile(path, data[:l.ValidBytes], 0o644); err != nil {
			t.Fatal(err)
		}
		kept, err := Load(path)
		if err != nil {
			t.Fatalf("the %d valid bytes Load kept do not load: %v", l.ValidBytes, err)
		}
		if kept.Fingerprint != l.Fingerprint || kept.Len() != l.Len() || kept.ValidBytes != l.ValidBytes {
			t.Fatalf("reloading the valid prefix changed the log: %q/%d/%d, was %q/%d/%d",
				kept.Fingerprint, kept.Len(), kept.ValidBytes, l.Fingerprint, l.Len(), l.ValidBytes)
		}
	})
}
