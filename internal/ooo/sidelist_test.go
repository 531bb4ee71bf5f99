package ooo_test

import (
	"slices"
	"testing"

	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/progen"
)

// squashPrograms is how many generated programs TestSideListsMatchROBWalk
// adds to the kernels and PoCs.
const squashPrograms = 50

// squashHeavy returns the first n generated programs that plant a gadget.
// Every gadget fragment squashes: a steering fragment mispredicts its
// guard, a chosen-code fragment faults, a bypass fragment violates memory
// order.
func squashHeavy(t *testing.T, n int) []resetTarget {
	var out []resetTarget
	for seed := int64(1); len(out) < n; seed++ {
		p, err := progen.Gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(p.Frags, func(k string) bool { return slices.Contains(progen.GadgetKinds, k) }) {
			out = append(out, resetTarget{name: p.Name, prog: p.Prog})
		}
	}
	return out
}

// TestSideListsMatchROBWalk steps every workload kernel, every attack PoC
// (cut short) and squash-heavy generated programs under every policy, with
// the sanitizer on, and after every cycle compares the pipeline's side
// lists and guard bits with a recomputation from the whole ROB
// (Core.CheckSideLists). The lists are what completion, the resolve-walk,
// broadcast arbitration and the event horizon read instead of the ROB, so a
// list that drifts from the ROB is a simulator bug even where no statistic
// shows it yet.
func TestSideListsMatchROBWalk(t *testing.T) {
	params := ooo.DefaultParams()
	params.Sanitize = true
	targets := append(resetTargets(t), squashHeavy(t, squashPrograms)...)
	for _, pol := range core.All() {
		t.Run(pol.Name, func(t *testing.T) {
			t.Parallel()
			for _, tg := range targets {
				budget := tg.budget
				if budget == 0 {
					budget = 50_000_000
				}
				c := ooo.New(tg.prog, loaded(tg.prog), pol, params)
				for !c.Halted() && c.Cycles() < budget {
					if err := c.Step(); err != nil {
						t.Fatalf("%s: %v", tg.name, err)
					}
					if err := c.CheckSideLists(); err != nil {
						t.Fatalf("%s: %v", tg.name, err)
					}
				}
				if n := c.SanitizerViolations(); n != 0 {
					t.Errorf("%s: %d sanitizer violations: %v", tg.name, n, c.SanitizerLog())
				}
			}
		})
	}
}
