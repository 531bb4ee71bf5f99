package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// benchValue is about the size of one marshalled sweep cell.
var benchValue = make([]byte, 2048)

// BenchmarkStoreGet times the disk-tier hit path: index lookup and touch,
// one file read with its header and CRC checks, and the recency stamp.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.Put("cell:hot", benchValue)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("cell:hot"); !ok {
			b.Fatal("hot entry missed")
		}
	}
}

// BenchmarkStoreGetDuringPut times the same hit while another goroutine
// Puts fresh keys, each through temp file, fsync and rename, for the
// whole timed window; puts/op reports how many landed per Get.
func BenchmarkStoreGetDuringPut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.Put("cell:hot", benchValue)
	var (
		stop atomic.Bool
		puts atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			s.Put(fmt.Sprintf("cell:%d", i), benchValue)
			puts.Add(1)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("cell:hot"); !ok {
			b.Fatal("hot entry missed")
		}
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	b.ReportMetric(float64(puts.Load())/float64(b.N), "puts/op")
}

// BenchmarkStoreOpen times Open over 10³ valid entries: the directory
// scan, per-entry validation, and recency restore.
func BenchmarkStoreOpen(b *testing.B) {
	const entries = 1000
	dir := b.TempDir()
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("cell:%d", i)
		if err := os.WriteFile(filepath.Join(dir, entryName(key)), encodeEntry(key, benchValue), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if n := s.Counters().Entries; n != entries {
			b.Fatalf("Open indexed %d entries, want %d", n, entries)
		}
	}
}
