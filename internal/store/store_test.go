package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func open(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, Options{MaxBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPutGetRoundtrip: stored values come back bit-exact, misses report
// cleanly, and both show up on the counters.
func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	val := []byte(`{"cycles":123,"cpi":1.5}`)
	s.Put("sweep-cell:abc", val)
	got, ok := s.Get("sweep-cell:abc")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get("sweep-cell:other"); ok {
		t.Fatal("missing key reported a hit")
	}
	c := s.Counters()
	if c.Entries != 1 || c.Hits != 1 || c.Misses != 1 || c.Puts != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Bytes <= int64(len(val)) {
		t.Fatalf("Bytes = %d, want > value size (header + key included)", c.Bytes)
	}
}

// TestPersistsAcrossOpen: the point of the package — a second Open over
// the same directory serves everything the first one stored, with the
// first simply abandoned, as kill -9 would leave it.
func TestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	for i := 0; i < 10; i++ {
		s1.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	// No shutdown of any kind: simulate an abrupt death after the Puts landed.
	s2 := open(t, dir, 0)
	if n := s2.Counters().Entries; n != 10 {
		t.Fatalf("reopened store holds %d entries, want 10", n)
	}
	for i := 0; i < 10; i++ {
		got, ok := s2.Get(fmt.Sprintf("k%d", i))
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("k%d after reopen = %q, %v", i, got, ok)
		}
	}
}

// TestLiveStoresShareEntries: two stores open on one directory at once,
// as coordinator replicas keep them, share entries without reopening. B
// serves what A put after both opened, counting a hit and no put; Has,
// which does no I/O, sees the entry only once B's Get has indexed it.
func TestLiveStoresShareEntries(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir, 0), open(t, dir, 0)
	a.Put("k", []byte("v"))
	if b.Has("k") {
		t.Error("Has found a peer's entry without a Get")
	}
	got, ok := b.Get("k")
	if !ok || string(got) != "v" {
		t.Fatalf("B.Get after A.Put = %q, %v; want the peer's entry", got, ok)
	}
	if !b.Has("k") {
		t.Error("Has does not see the entry Get indexed")
	}
	if c := b.Counters(); c.Entries != 1 || c.Hits != 1 || c.Misses != 0 || c.Puts != 0 {
		t.Errorf("B's counters = %+v, want 1 entry, 1 hit, 0 misses, 0 puts", c)
	}
	if _, ok := b.Get("absent"); ok {
		t.Error("a key no store wrote reported a hit")
	}
}

// TestPutIdempotent: re-putting an existing key only touches recency; the
// byte accounting and file set do not change.
func TestPutIdempotent(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	s.Put("k", []byte("v"))
	before := s.Counters()
	s.Put("k", []byte("v"))
	after := s.Counters()
	if after.Puts != before.Puts || after.Bytes != before.Bytes || after.Entries != 1 {
		t.Fatalf("re-put changed accounting: %+v -> %+v", before, after)
	}
}

// TestByteBudgetGC: eviction is sized in bytes and orders by recency — a
// Get shields an old entry, the untouched one goes first.
func TestByteBudgetGC(t *testing.T) {
	// Each entry is headerLen + len(key) + len(val); keys "a".."d" are 1
	// byte, values 100 bytes, so entries are 121 bytes. Budget three.
	const budget = 3*121 + 10
	s := open(t, t.TempDir(), budget)
	val := bytes.Repeat([]byte("x"), 100)
	s.Put("a", val)
	s.Put("b", val)
	s.Put("c", val)
	if c := s.Counters(); c.Evictions != 0 || c.Entries != 3 {
		t.Fatalf("under-budget store evicted: %+v", c)
	}
	if _, ok := s.Get("a"); !ok { // touch: "b" is now least recent
		t.Fatal("a missing before budget pressure")
	}
	s.Put("d", val)
	c := s.Counters()
	if c.Entries != 3 || c.Evictions != 1 || c.EvictedBytes != 121 {
		t.Fatalf("budget eviction accounting: %+v", c)
	}
	if c.Bytes > budget {
		t.Fatalf("Bytes = %d over budget %d", c.Bytes, budget)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("least-recently-used entry survived the byte budget")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently-used entry %q was evicted", k)
		}
	}
}

// TestOversizedValueNotWedged: a value larger than the whole budget must
// not permanently pin the store over budget.
func TestOversizedValueNotWedged(t *testing.T) {
	s := open(t, t.TempDir(), 64)
	s.Put("huge", bytes.Repeat([]byte("x"), 1024))
	if c := s.Counters(); c.Bytes > 64 || c.Entries != 0 {
		t.Fatalf("oversized value stuck in the store: %+v", c)
	}
}

// TestRecencySurvivesReopen: the entry mtimes carry LRU order across a
// restart — after reopening, budget pressure still evicts the entry that
// was least recently used before the restart.
func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	val := bytes.Repeat([]byte("x"), 100)
	s1.Put("a", val)
	s1.Put("b", val)
	s1.Put("c", val)
	if _, ok := s1.Get("a"); !ok { // "b" is now oldest
		t.Fatal("a missing")
	}

	s2 := open(t, dir, 3*121+10)
	s2.Put("d", val)
	if _, ok := s2.Get("b"); ok {
		t.Fatal("pre-restart LRU order lost: b survived, so something fresher was evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("%q evicted despite being fresher than b", k)
		}
	}
}

// TestOpenEnforcesBudget: a store reopened under a smaller budget than
// its contents sheds the excess immediately.
func TestOpenEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	val := bytes.Repeat([]byte("x"), 100)
	for _, k := range []string{"a", "b", "c", "d"} {
		s1.Put(k, val)
	}
	s2 := open(t, dir, 2*121+10)
	if c := s2.Counters(); c.Bytes > 2*121+10 || c.Entries != 2 {
		t.Fatalf("reopen did not enforce the byte budget: %+v", c)
	}
}

// TestVersionMismatchDropped: an entry written by a different format
// version is deleted on Open, not served.
func TestVersionMismatchDropped(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	s1.Put("k", []byte("old-format-value"))

	// Rewrite the entry with a bumped version field; everything else,
	// checksum included, stays valid.
	name := entryName("k")
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[4]++ // low byte of the little-endian version
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if _, ok := s2.Get("k"); ok {
		t.Fatal("entry from another format version was served")
	}
	if c := s2.Counters(); c.DroppedOnOpen != 1 {
		t.Fatalf("DroppedOnOpen = %d, want 1", c.DroppedOnOpen)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("stale-version entry file not deleted")
	}
}

// TestKeyPrefixCollision: a file whose header key does not match the
// requested key (hash-prefix collision or tampering) reads as a miss.
func TestKeyPrefixCollision(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	s1.Put("honest", []byte("v"))
	// Rename the entry file to the address of a different key.
	if err := os.Rename(filepath.Join(dir, entryName("honest")), filepath.Join(dir, entryName("impostor"))); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	if _, ok := s2.Get("impostor"); ok {
		t.Fatal("entry served under a key its header does not carry")
	}
}

// TestHeavyTouchRecency: thousands of touches across two entries still
// leave the right one least recent after a reopen.
func TestHeavyTouchRecency(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put("a", []byte("v"))
	s.Put("b", []byte("v"))
	for i := 0; i < 2000; i++ {
		s.Get("a")
		s.Get("b")
	}
	s.Get("a")
	s2 := open(t, dir, int64(2*(headerLen+1+1))+1)
	s2.Put("c", []byte("v"))
	if _, ok := s2.Get("b"); ok {
		t.Fatal("heavy touching lost recency order across a reopen")
	}
}
