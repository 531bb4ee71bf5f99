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
func runTiming(c *ooo.Core, secret byte, msrSecret uint64, evs []ooo.ChannelEvent) ([]ooo.ChannelEvent, uint64, error) {
	return (&timingCore{c: c}).timing(secret, msrSecret, evs)
}

// BenchmarkTimingRuns times one program's 18 sanitized timing runs, every
// policy with both planted secrets, on one reused core, as a Fuzz worker
// runs them. A warm-up pass builds the core and grows the run image and
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
	run := func(pol core.Policy, secret byte, msrSecret uint64, evs []ooo.ChannelEvent) []ooo.ChannelEvent {
		evs, san, err := t.run(p, base, pol, secret, msrSecret, evs[:0])
		if err != nil || san != 0 {
			b.Fatalf("%s under %s: %d sanitizer violations, err %v", p.Name, pol.Name, san, err)
		}
		return evs
	}
	runs := func() {
		for _, pol := range policies {
			t.trA = run(pol, secretA, msrSecretA, t.trA)
			t.trB = run(pol, secretB, msrSecretB, t.trB)
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
