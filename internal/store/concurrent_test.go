package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// valueOf derives a key's value, so a reader can check every hit on its
// own: a value served under the wrong key, or torn, cannot match.
func valueOf(key string) []byte {
	return bytes.Repeat([]byte(key+";"), 16)
}

// TestConcurrentGetPutEvict runs 8 readers against 1 writer over a budget
// of a few entries, so eviction runs all the time, and checks that every
// hit is exactly the value Put for its key, that every Get is counted
// once, and that the directory left behind reopens clean and in budget.
func TestConcurrentGetPutEvict(t *testing.T) {
	const (
		readers = 8
		keys    = 16
		puts    = 300
	)
	key := func(i int) string { return fmt.Sprintf("cell:%02d", i%keys) }
	entrySize := int64(headerLen + len(key(0)) + len(valueOf(key(0))))
	budget := 4*entrySize + entrySize/2

	dir := t.TempDir()
	s := open(t, dir, budget)
	var (
		done   atomic.Bool
		issued atomic.Int64
		wg     sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load() || i < r+keys; i++ {
				k := key(i * 7)
				got, ok := s.Get(k)
				issued.Add(1)
				if ok && !bytes.Equal(got, valueOf(k)) {
					t.Errorf("Get(%q) served %q", k, got)
					return
				}
			}
		}(r)
	}
	for i := 0; i < puts; i++ {
		k := key(i * 5)
		s.Put(k, valueOf(k))
	}
	done.Store(true)
	wg.Wait()

	c := s.Counters()
	if c.Hits == 0 {
		t.Fatalf("no Get ever hit: %+v", c)
	}
	if c.Hits+c.Misses != issued.Load() {
		t.Fatalf("hits %d + misses %d != %d Gets issued", c.Hits, c.Misses, issued.Load())
	}
	if c.Bytes > budget || c.Evictions == 0 {
		t.Fatalf("budget not enforced under load: %+v (budget %d)", c, budget)
	}

	s2 := open(t, dir, budget)
	if c2 := s2.Counters(); c2.Bytes > budget || c2.DroppedOnOpen != 0 {
		t.Fatalf("reopened store: %+v (budget %d)", c2, budget)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), entrySuffix) {
			t.Errorf("stray file after reopen: %s", de.Name())
			continue
		}
		k, val, _, err := readEntry(filepath.Join(dir, de.Name()))
		if err != nil || !bytes.Equal(val, valueOf(k)) {
			t.Errorf("reopened store kept a bad entry %s: key %q, %v", de.Name(), k, err)
		}
	}
	for i := 0; i < keys; i++ {
		if got, ok := s2.Get(key(i)); ok && !bytes.Equal(got, valueOf(key(i))) {
			t.Errorf("reopened Get(%q) served %q", key(i), got)
		}
	}
}
