package diffuzz

import (
	"testing"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/progen"
)

// BenchmarkTimingRuns times one program's 18 sanitized timing runs, every
// policy with both planted secrets, each resumed on one reused core from
// the start holding its secret vector, as a Fuzz worker would run them if
// it took no run over. A warm-up pass builds the core and grows its memory
// image and the trace buffers first, so allocs/op covers the steady state,
// where a timing run should allocate nothing.
func BenchmarkTimingRuns(b *testing.B) {
	p, err := progen.Gen(1)
	if err != nil {
		b.Fatal(err)
	}
	var ta, tb timingCore
	startA, startB := ta.take(p, secretsA), tb.take(p, secretsB)
	t := new(timingCore)
	run := func(pol core.Policy, start *checkpoint.Checkpoint, evs []ooo.ChannelEvent) []ooo.ChannelEvent {
		r := t.run(p, start, pol, nil, evs[:0])
		if r.err != nil || r.san != 0 {
			b.Fatalf("%s under %s: %d sanitizer violations, err %v", p.Name, pol.Name, r.san, r.err)
		}
		return r.trace
	}
	var trA, trB []ooo.ChannelEvent
	runs := func() {
		for _, pol := range policies {
			trA = run(pol, startA, trA)
			trB = run(pol, startB, trB)
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
