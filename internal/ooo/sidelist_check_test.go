package ooo

import (
	"fmt"
	"slices"

	"nda/internal/core"
	"nda/internal/isa"
)

// CheckSideLists is the reference for the per-cycle side lists: it
// recomputes every list and the guard bits from a walk over the whole ROB,
// the way the pipeline found them before it kept the lists, and reports the
// first disagreement. Called after Step, when every stage has run:
//
//   - rdyq holds the entries waiting to issue whose operands are ready
//     (operandsReady), in age order, and iqLen counts every entry waiting
//     to issue;
//   - every entry waiting to issue has waiting equal to its number of
//     distinct unready sources, and the waiter sets hold exactly the
//     (waiting entry, unready source) pairs;
//   - lq and sq hold the loads and the stores, in age order;
//   - execq holds the issued, not yet completed entries, in any order;
//   - bcq holds the completed register writers not yet broadcast, in age
//     order;
//   - brq holds the unresolved ClassBranch entries, in age order;
//   - under a policy whose rules walk guards, every UnderGuard bit equals a
//     fresh Rules.RecomputeGuards walk;
//   - under InvisiSpec-Spectre, no completed hidden load is left
//     unexposed once it is clear of guards.
//
// It lives in a test file so only tests can call it; the external tests
// drive it over programs whose packages import this one.
func (c *Core) CheckSideLists() error {
	var rdy, lq, sq, exec, bc, br []int32
	unissued := 0
	waiters := make([]uint64, len(c.waiters))
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		if !e.Issued {
			unissued++
			if c.operandsReady(e) {
				rdy = append(rdy, e.Slot)
			}
			srcs := []int{e.Src1P}
			if !e.Inst.IsStore() && e.Src2P != e.Src1P {
				srcs = append(srcs, e.Src2P)
			}
			unready := 0
			for _, p := range srcs {
				if !c.pReady(p) {
					unready++
					waiters[p*c.waitWords+int(e.Slot)/64] |= 1 << (e.Slot % 64)
				}
			}
			if int(e.waiting) != unready {
				return fmt.Errorf("cycle %d: seq %d (%v) has waiting=%d, its sources have %d unready",
					c.cycle, e.Seq, e.Inst, e.waiting, unready)
			}
		}
		if e.Inst.IsLoad() {
			lq = append(lq, e.Slot)
		}
		if e.Inst.IsStore() {
			sq = append(sq, e.Slot)
		}
		if e.Issued && !e.Node.Completed {
			exec = append(exec, e.Slot)
		}
		if e.Node.Completed && e.DestP != noPReg && !e.Node.Broadcast {
			bc = append(bc, e.Slot)
		}
		if e.Node.Class == isa.ClassBranch && !e.Node.GuardResolved {
			br = append(br, e.Slot)
		}
	}
	execq := slices.Clone(c.execq.slots())
	slices.Sort(execq)
	slices.Sort(exec)
	for _, l := range []struct {
		name      string
		got, want []int32
	}{
		{"rdyq", c.rdyq.slots(), rdy},
		{"lq", c.lq.slots(), lq},
		{"sq", c.sq.slots(), sq},
		{"execq (as a set)", execq, exec},
		{"bcq", c.bcq.slots(), bc},
		{"brq", c.brq.slots(), br},
	} {
		if !slices.Equal(l.got, l.want) {
			return fmt.Errorf("cycle %d: %s = %v, a ROB walk gives %v", c.cycle, l.name, l.got, l.want)
		}
	}
	if c.iqLen != unissued {
		return fmt.Errorf("cycle %d: iqLen = %d, the ROB holds %d unissued entries", c.cycle, c.iqLen, unissued)
	}
	for i, w := range waiters {
		if c.waiters[i] != w {
			return fmt.Errorf("cycle %d: p%d's waiter word %d = %#x, a ROB walk gives %#x",
				c.cycle, i/c.waitWords, i%c.waitWords, c.waiters[i], w)
		}
	}

	if c.rules.Walk {
		nodes := make([]*core.Node, c.robLen)
		for i := range nodes {
			n := c.robAt(i).Node
			nodes[i] = &n
		}
		c.rules.RecomputeGuards(nodes)
		for i, n := range nodes {
			if e := c.robAt(i); e.Node.UnderGuard != n.UnderGuard {
				return fmt.Errorf("cycle %d: seq %d (%v) has UnderGuard=%v, a fresh resolve-walk gives %v",
					c.cycle, e.Seq, e.Inst, e.Node.UnderGuard, n.UnderGuard)
			}
		}
	}
	if c.rules.Fill == core.FillAtResolve {
		for i := 0; i < c.robLen; i++ {
			if e := c.robAt(i); e.Invisible && !e.Exposed && e.Node.Completed && !e.Node.UnderGuard {
				return fmt.Errorf("cycle %d: seq %d (%v) completed clear of guards but its fill is still hidden",
					c.cycle, e.Seq, e.Inst)
			}
		}
	}
	return nil
}

// operandsReady is select's readiness test as it was before the pipeline
// kept wake-up lists: a store needs its address base, anything else both
// sources. The check above holds rdyq to it.
func (c *Core) operandsReady(e *Entry) bool {
	if e.Inst.IsStore() {
		return c.pReady(e.Src1P)
	}
	return c.pReady(e.Src1P) && c.pReady(e.Src2P)
}
