package bpred

import (
	"math/rand"
	"runtime"
	"testing"
)

// The predictor benchmarks time one predict/train round each, at the sizes
// the out-of-order core uses (ooo.DefaultParams), over a fixed random
// stream of branch PCs. Each fails unless it reads 0 allocs/op: the core
// calls these on every fetched and every resolved control instruction.

// mallocs returns the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// noAllocs fails b if the timed loop's allocations, counted process-wide,
// come to one or more per operation (a stray runtime allocation rounds to
// zero).
func noAllocs(b *testing.B, allocs uint64) {
	b.Helper()
	if n := allocs / uint64(b.N); n != 0 {
		b.Fatalf("%d allocs/op; the predictor must not allocate", n)
	}
}

// branchPCs returns 4096 word-aligned PCs spread over 1024 branch sites.
func branchPCs() []uint64 {
	r := rand.New(rand.NewSource(1))
	pcs := make([]uint64, 1<<12)
	for i := range pcs {
		pcs[i] = 0x1000 + uint64(r.Intn(1<<10))*4
	}
	return pcs
}

// BenchmarkGshare times a Predict and the Update that trains it, with the
// outcome a fixed function of the PC.
func BenchmarkGshare(b *testing.B) {
	pcs := branchPCs()
	g := NewGshare(14)
	b.ReportAllocs()
	before := mallocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i&(len(pcs)-1)]
		taken := pc&8 != 0
		if pred, ck := g.Predict(pc); pred != taken {
			g.Update(pc, taken, ck)
			g.Restore(ck, taken)
		} else {
			g.Update(pc, taken, ck)
		}
	}
	b.StopTimer()
	noAllocs(b, mallocs()-before)
}

// BenchmarkBTB times a Lookup and, on a miss or a wrong target, the Update
// that installs the target: 1024 sites over a 4096-entry, 4-way BTB, so
// the stream settles into hits after the first pass.
func BenchmarkBTB(b *testing.B) {
	pcs := branchPCs()
	btb := NewBTB(4096, 4)
	b.ReportAllocs()
	before := mallocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i&(len(pcs)-1)]
		if target, ok := btb.Lookup(pc); !ok || target != pc+64 {
			btb.Update(pc, pc+64)
		}
	}
	b.StopTimer()
	noAllocs(b, mallocs()-before)
}
