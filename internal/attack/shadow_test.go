package attack

import (
	"testing"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/ooo"
)

// TestTable2ShadowOracle uses Table 2 as an oracle for shadow rule tables
// (ooo.Core.SetShadows): each PoC runs once, under the baseline, with
// every other policy shadowed, on the matrix's params and from the PoC's
// own start state. A policy that Table 2 says blocks the PoC must have
// diverged: its run leaks nothing where the baseline's leaks, so the two
// runs differ.
func TestTable2ShadowOracle(t *testing.T) {
	pols := core.All()
	rules := make([]core.Rules, len(pols)-1)
	for i, pol := range pols[1:] {
		rules[i] = core.Compile(pol.Gates)
	}
	var cs checkpoint.Cores
	for _, kind := range All() {
		p, err := lookup(kind)
		if err != nil {
			t.Fatal(err)
		}
		c := cs.ResumeOoO(p.start, p.prog, pols[0], ooo.DefaultParams())
		if p.warm != nil {
			p.warm(c)
		}
		c.SetShadows(rules)
		if err := c.Run(30_000_000); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i, pol := range pols[1:] {
			diverged := c.Diverged()&(1<<i) != 0
			blocks := Expected[kind]["OoO"] && !Expected[kind][pol.Name]
			if blocks && !diverged {
				t.Errorf("%s: Table 2 has %s block it, but its shadow never diverged from the baseline", kind, pol.Name)
			}
		}
	}
}
