package ooo_test

import (
	"math"
	"runtime"
	"testing"

	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/workload"
)

// runInstsKernels are the run loop's measured kernels, a compute-bound
// one (exchange2) and a memory-bound one (mcf), with the instructions
// each run commits.
var runInstsKernels = []struct {
	name  string
	insts uint64
}{
	{"exchange2", 50_000},
	{"mcf", 20_000},
}

// runInstsPolicies are the baseline, the lightest and the heaviest NDA
// policy, and InvisiSpec.
var runInstsPolicies = []core.Policy{core.Baseline(), core.Permissive(), core.FullProtection(), core.InvisiSpecSpectre()}

// TestRunInstsAllocatesNothing: the simulator's run loop allocates
// nothing, on a freshly built core, for each kernel and policy that
// BenchmarkRunInsts times. The allocation count is process-wide, so
// GOMAXPROCS is pinned to 1 for each measured window, as
// testing.AllocsPerRun does, to keep other goroutines out of it. A
// runtime goroutine can still allocate inside a window now and then, but
// not in every run, while an allocating run loop allocates in every run of
// the same input: so the check takes the fewest of up to three runs.
func TestRunInstsAllocatesNothing(t *testing.T) {
	for _, k := range runInstsKernels {
		spec, err := workload.ByName(k.name)
		if err != nil {
			t.Fatal(err)
		}
		prog := spec.Build(1 << 40)
		for _, pol := range runInstsPolicies {
			least := uint64(math.MaxUint64)
			for run := 0; run < 3 && least != 0; run++ {
				c := ooo.NewFromProgram(prog, pol, ooo.DefaultParams())
				var before, after runtime.MemStats
				procs := runtime.GOMAXPROCS(1)
				runtime.ReadMemStats(&before)
				err := c.RunInsts(k.insts, 50_000_000)
				runtime.ReadMemStats(&after)
				runtime.GOMAXPROCS(procs)
				if err != nil {
					t.Fatal(err)
				}
				least = min(least, after.Mallocs-before.Mallocs)
			}
			if least != 0 {
				t.Errorf("%s/%s: RunInsts allocated %d objects in each of 3 runs; the run loop must not allocate", k.name, pol.Name, least)
			}
		}
	}
}

// BenchmarkRunInsts times the simulator's run loop alone, the layer that
// dominates every sweep cell, over runInstsKernels under
// runInstsPolicies. Core construction and the bookkeeping after the loop
// happen with the timer stopped, so the reported Mcycles/s is simulated
// cycles per second of RunInsts, and allocs/op covers the run loop only
// (TestRunInstsAllocatesNothing holds it at zero).
func BenchmarkRunInsts(b *testing.B) {
	for _, k := range runInstsKernels {
		spec, err := workload.ByName(k.name)
		if err != nil {
			b.Fatal(err)
		}
		prog := spec.Build(1 << 40)
		for _, pol := range runInstsPolicies {
			b.Run(k.name+"/"+pol.Name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := ooo.NewFromProgram(prog, pol, ooo.DefaultParams())
					b.StartTimer()
					if err := c.RunInsts(k.insts, 50_000_000); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					cycles += c.Cycles()
					b.StartTimer()
				}
				// Nothing after the last RunInsts is the op's: testing
				// charges the timed region's time and allocations to it.
				b.StopTimer()
				b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
			})
		}
	}
}
