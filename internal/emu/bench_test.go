package emu_test

import (
	"runtime"
	"testing"

	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/mem"
	"nda/internal/progen"
	"nda/internal/workload"
)

// mallocs returns the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkStep times the reference emulator's step loop, one op per
// executed instruction, so ns/op is ns/step. It runs a generated
// differential-fuzzing program (progen seed 1) and a SPEC kernel (mcf, an
// effectively endless build). The progen program halts after a few dozen
// steps; the machine then restarts on its memory image restored from the
// loaded one, as the differential checker does before every run, and that
// restore is inside the timing. A run before the timer maps every page the
// loop touches, and the benchmark fails unless the step loop reads
// 0 allocs/op.
func BenchmarkStep(b *testing.B) {
	gen, err := progen.Gen(1)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		prog *isa.Program
	}{
		{"progen", gen.Prog},
		{"mcf", spec.Build(1 << 40)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			base := mem.New()
			emu.Load(base, bc.prog)
			img := mem.New()
			var m emu.Machine
			restart := func() {
				img.CopyFrom(base)
				m = *emu.NewWithMemory(bc.prog, img)
			}
			restart()
			if err := m.RunN(1_000_000); err != nil {
				b.Fatal(err)
			}
			restart()
			b.ReportAllocs()
			before := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Halted {
					restart()
				}
				if err := m.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := (mallocs() - before) / uint64(b.N); n != 0 {
				b.Fatalf("%d allocs/op; an emulator step must not allocate", n)
			}
		})
	}
}
