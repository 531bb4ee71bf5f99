package cache

import (
	"math/rand"
	"runtime"
	"testing"
)

// mallocs returns the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkLookupInstall times one L1D access the way the hierarchy makes
// it: a Lookup, and an Install when it misses. The addresses are random
// lines of a working set that fits the 32 kB cache ("fits", mostly hits)
// or is eight times its size ("spills", mostly misses and evictions). The
// benchmark fails unless the access path reads 0 allocs/op.
func BenchmarkLookupInstall(b *testing.B) {
	p := DefaultHierarchyParams().L1D
	for _, ws := range []struct {
		name  string
		bytes int
	}{
		{"fits", p.SizeBytes / 2},
		{"spills", p.SizeBytes * 8},
	} {
		b.Run(ws.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			addrs := make([]uint64, 1<<12)
			for i := range addrs {
				addrs[i] = uint64(r.Intn(ws.bytes/p.LineBytes) * p.LineBytes)
			}
			c := New(p)
			b.ReportAllocs()
			before := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a := addrs[i&(len(addrs)-1)]; !c.Lookup(a) {
					c.Install(a)
				}
			}
			b.StopTimer()
			if n := (mallocs() - before) / uint64(b.N); n != 0 {
				b.Fatalf("%d allocs/op; a cache access must not allocate", n)
			}
		})
	}
}
