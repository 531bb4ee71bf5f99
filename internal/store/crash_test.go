package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// These tests inject the crash artifacts a kill -9 (or a full disk, or a
// stray editor) can leave in a store directory and prove Open's recovery
// contract: bad entries are dropped and recomputed, never served; good
// entries are untouched.

// seedStore fills dir with n entries and returns their keys and values.
// The store is simply abandoned, as a crashed process would leave it.
func seedStore(t *testing.T, dir string, n int) (keys []string, vals [][]byte) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("cell:%04d", i)
		v := bytes.Repeat([]byte{byte('a' + i%26)}, 64+i)
		s.Put(k, v)
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals
}

// TestTruncatedEntryRecovered: a torn value file (half a write that
// somehow bypassed the atomic rename — e.g. filesystem corruption) is
// dropped on Open; every other entry still serves.
func TestTruncatedEntryRecovered(t *testing.T) {
	dir := t.TempDir()
	keys, vals := seedStore(t, dir, 5)

	victim := filepath.Join(dir, entryName(keys[2]))
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.DroppedOnOpen != 1 || c.Entries != 4 {
		t.Fatalf("recovery counters = %+v, want 1 dropped / 4 live", c)
	}
	if _, ok := s.Get(keys[2]); ok {
		t.Fatal("torn entry was served")
	}
	for i, k := range keys {
		if i == 2 {
			continue
		}
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("intact entry %q lost in recovery: %q, %v", k, got, ok)
		}
	}
	// The dropped slot recomputes: a fresh Put serves again.
	s.Put(keys[2], vals[2])
	if got, ok := s.Get(keys[2]); !ok || !bytes.Equal(got, vals[2]) {
		t.Fatal("recomputed entry did not store")
	}
}

// TestCorruptedValueRecovered: a bit-flip in the value body fails the CRC
// and the entry is dropped, not served corrupt.
func TestCorruptedValueRecovered(t *testing.T) {
	dir := t.TempDir()
	keys, _ := seedStore(t, dir, 3)
	victim := filepath.Join(dir, entryName(keys[0]))
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("checksum-failing entry was served")
	}
	if c := s.Counters(); c.DroppedOnOpen != 1 {
		t.Fatalf("DroppedOnOpen = %d, want 1", c.DroppedOnOpen)
	}
}

// TestDanglingTempFilesSwept: temp files from writes interrupted by a
// crash are deleted on Open and never surface as entries.
func TestDanglingTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	keys, _ := seedStore(t, dir, 2)
	for _, name := range []string{tmpPrefix + "123456", tmpPrefix + "crashed"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Counters().Entries; n != 2 {
		t.Fatalf("store holds %d entries, want the 2 real ones", n)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != entryName(keys[0]) && de.Name() != entryName(keys[1]) {
			t.Errorf("unexpected file survived recovery: %s", de.Name())
		}
	}
}

// TestGarbageEntryFileDropped: an entry-suffixed file that was never ours
// (bad magic) is removed, not trusted.
func TestGarbageEntryFileDropped(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	alien := filepath.Join(dir, "deadbeefdeadbeefdeadbeefdeadbeef"+entrySuffix)
	if err := os.WriteFile(alien, []byte("not an NDST entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Counters().Entries; n != 1 {
		t.Fatalf("alien file indexed: %d entries", n)
	}
	if _, err := os.Stat(alien); !os.IsNotExist(err) {
		t.Fatal("alien entry file not removed")
	}
}
