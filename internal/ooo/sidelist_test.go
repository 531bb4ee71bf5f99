package ooo_test

import (
	"fmt"
	"slices"
	"testing"

	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/progen"
	"nda/internal/stats"
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

// ringShapes are ROB sizes at and around the 64-slot word boundaries of
// the core's slot bitmasks (waiter sets, completion buckets).
var ringShapes = []int{8, 63, 64, 65, 129, 256}

// shapeParams scales the default core to a ROB of rob entries: the issue,
// load and store queues in proportion, and enough physical registers to
// rename a full ROB.
func shapeParams(rob int) ooo.Params {
	p := ooo.DefaultParams()
	p.Sanitize = true
	p.ROBSize = rob
	p.IQSize = max(4, rob*p.IQSize/192)
	p.LQSize = max(2, rob*p.LQSize/192)
	p.SQSize = max(2, rob*p.SQSize/192)
	p.PhysRegs = isa.NumGPR + rob + 32
	return p
}

// TestSideListsAtRingShapes runs TestSideListsMatchROBWalk's per-cycle
// comparison on ROB sizes around word boundaries, over squash-heavy
// generated programs under every policy. Each program also runs with the
// ring's head started a few slots short of the wrap point, and must give
// the statistics it gives from slot 0; each shape must squash across the
// wrap point, freeing slots from the end of the ring into slot 0.
func TestSideListsAtRingShapes(t *testing.T) {
	targets := squashHeavy(t, 12)
	for _, rob := range ringShapes {
		t.Run(fmt.Sprint(rob), func(t *testing.T) {
			t.Parallel()
			params := shapeParams(rob)
			wrapped := 0
			for _, pol := range core.All() {
				for _, tg := range targets {
					var first stats.Counters
					for i, head := range []int{0, rob - 3, rob - 11} {
						if head < 0 {
							continue
						}
						c := ooo.New(tg.prog, loaded(tg.prog), pol, params)
						c.RotateRing(head)
						wrapped += stepChecked(t, c, tg.name, pol.Name)
						if i == 0 {
							first = *c.Stats()
						} else if *c.Stats() != first {
							t.Errorf("%s under %s: head %d gives %+v, head 0 %+v", tg.name, pol.Name, head, *c.Stats(), first)
						}
					}
				}
			}
			if wrapped == 0 {
				t.Errorf("ROB %d: no squash crossed the ring's wrap point", rob)
			}
		})
	}
}

// stepChecked steps c to its halt, checking its side lists after every
// cycle, and returns how many of its steps squashed across the ring's wrap
// point.
func stepChecked(t *testing.T, c *ooo.Core, name, pol string) (wrapped int) {
	t.Helper()
	for !c.Halted() && c.Cycles() < 1_000_000 {
		head, n, size := c.RingState()
		squashed := c.Stats().SquashedInsts
		if err := c.Step(); err != nil {
			t.Fatalf("%s under %s: %v", name, pol, err)
		}
		if err := c.CheckSideLists(); err != nil {
			t.Fatalf("%s under %s: %v", name, pol, err)
		}
		// A step's squashes free the youngest d entries it started with:
		// ring positions head+n-d .. head+n-1, unwrapped.
		if d := int(c.Stats().SquashedInsts - squashed); d > 0 && head+n-d < size && head+n-1 >= size {
			wrapped++
		}
	}
	if n := c.SanitizerViolations(); n != 0 {
		t.Errorf("%s under %s: %d sanitizer violations: %v", name, pol, n, c.SanitizerLog())
	}
	return wrapped
}
