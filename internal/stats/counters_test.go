package stats

import "testing"

// TestCountersZeroAndRatios: an empty counter block reports 0 for every
// derived ratio rather than dividing by zero, and filled counters give the
// plain quotients.
func TestCountersZeroAndRatios(t *testing.T) {
	var z Counters
	if z.CPI() != 0 || z.IPC() != 0 || z.MLP() != 0 || z.ILP() != 0 || z.DispatchToIssue() != 0 || z.MispredictRate() != 0 {
		t.Error("zero-value counters must report 0")
	}
	c := Counters{
		Cycles: 300, Committed: 100,
		MLPSum: 30, MLPCycles: 20,
		ILPSum: 50, ILPCycles: 25,
		DispatchToIssueSum: 70, DispatchToIssueCount: 10,
		BranchesResolved: 8, Mispredicts: 2,
	}
	for _, r := range []struct {
		name      string
		got, want float64
	}{
		{"CPI", c.CPI(), 3},
		{"IPC", c.IPC(), 1.0 / 3},
		{"MLP", c.MLP(), 1.5},
		{"ILP", c.ILP(), 2},
		{"DispatchToIssue", c.DispatchToIssue(), 7},
		{"MispredictRate", c.MispredictRate(), 0.25},
	} {
		if r.got != r.want {
			t.Errorf("%s = %v, want %v", r.name, r.got, r.want)
		}
	}
}
