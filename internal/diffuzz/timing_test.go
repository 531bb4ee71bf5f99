package diffuzz

import (
	"testing"

	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/mem"
	"nda/internal/ooo"
	"nda/internal/progen"
)

// runTiming is one timing run on a core no timingCore keeps, ready to run
// (fresh or just reset): the fresh side of TestReusedCoreMatchesFresh.
func runTiming(c *ooo.Core, shadows []core.Rules, sec secrets, evs []ooo.ChannelEvent) timingRun {
	return (&timingCore{c: c}).timing(shadows, sec, evs)
}

// BenchmarkTimingRuns times one program's 18 sanitized timing runs, every
// policy with both planted secrets, on one reused core, as a Fuzz worker
// would run them if it took no run over. A warm-up pass builds the core and grows the run image and
// trace buffers first, so allocs/op covers the steady state, where a timing
// run should allocate nothing.
func BenchmarkTimingRuns(b *testing.B) {
	p, err := progen.Gen(1)
	if err != nil {
		b.Fatal(err)
	}
	base := mem.New()
	emu.Load(base, p.Prog)
	t := new(timingCore)
	run := func(pol core.Policy, sec secrets, evs []ooo.ChannelEvent) []ooo.ChannelEvent {
		r := t.run(p, base, pol, nil, sec, evs[:0])
		if r.err != nil || r.san != 0 {
			b.Fatalf("%s under %s: %d sanitizer violations, err %v", p.Name, pol.Name, r.san, r.err)
		}
		return r.trace
	}
	var trA, trB []ooo.ChannelEvent
	runs := func() {
		for _, pol := range policies {
			trA = run(pol, secretsA, trA)
			trB = run(pol, secretsB, trB)
		}
	}
	runs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs()
	}
	b.ReportMetric(float64(2*len(policies)*b.N)/b.Elapsed().Seconds(), "runs/s")
}
