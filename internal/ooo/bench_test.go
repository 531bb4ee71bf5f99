package ooo_test

import (
	"runtime"
	"testing"

	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/workload"
)

// BenchmarkRunInsts times the simulator's run loop alone, the layer that
// dominates every sweep cell: a compute-bound kernel (exchange2) and a
// memory-bound one (mcf), each under the baseline, the lightest and the
// heaviest NDA policy, and InvisiSpec. Core construction and the
// bookkeeping after the loop happen with the timer stopped, so the reported
// Mcycles/s is simulated cycles per second of RunInsts, and allocs/op
// covers the run loop only. That loop must not allocate: the benchmark
// fails unless allocs/op is 0.
func BenchmarkRunInsts(b *testing.B) {
	kernels := []struct {
		name  string
		insts uint64
	}{
		{"exchange2", 50_000},
		{"mcf", 20_000},
	}
	pols := []core.Policy{core.Baseline(), core.Permissive(), core.FullProtection(), core.InvisiSpecSpectre()}
	for _, k := range kernels {
		spec, err := workload.ByName(k.name)
		if err != nil {
			b.Fatal(err)
		}
		prog := spec.Build(1 << 40)
		for _, pol := range pols {
			b.Run(k.name+"/"+pol.Name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles, mallocs uint64
				var ms runtime.MemStats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := ooo.NewFromProgram(prog, pol, ooo.DefaultParams())
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					b.StartTimer()
					if err := c.RunInsts(k.insts, 50_000_000); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					runtime.ReadMemStats(&ms)
					mallocs += ms.Mallocs - before
					cycles += c.Cycles()
					b.StartTimer()
				}
				// Nothing after the last RunInsts is the op's: testing
				// charges the timed region's time and allocations to it.
				b.StopTimer()
				// The count is process-wide, so a runtime allocation on
				// another goroutine can land in a window now and then; an
				// allocating run loop allocates on every run.
				if perOp := mallocs / uint64(b.N); perOp != 0 {
					b.Fatalf("RunInsts: %d allocs/op; the run loop must not allocate", perOp)
				}
				b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
			})
		}
	}
}
