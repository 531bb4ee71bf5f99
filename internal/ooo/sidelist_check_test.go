package ooo

import (
	"fmt"
	"math/bits"
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
//   - execq holds the issued, not yet completed entries, each once, in
//     the bucket of its CompleteAt, and marks exactly its nonempty
//     buckets full;
//   - bcq holds the completed register writers not yet broadcast, in age
//     order;
//   - brq holds the unresolved ClassBranch entries, in age order;
//   - fenceq holds the uncompleted FENCEs, in age order;
//   - each issued load's bypass list holds exactly Node.BypassGuards
//     slots, as a set those of the older stores whose addresses are still
//     unresolved and that its store-queue scan reached (the ones younger
//     than the store it forwarded from, if any); every other entry has
//     BypassGuards 0;
//   - under a policy whose rules walk guards, every UnderGuard bit equals a
//     fresh Rules.RecomputeGuards walk;
//   - under InvisiSpec-Spectre, no completed hidden load is left
//     unexposed once it is clear of guards.
//
// It lives in a test file so only tests can call it; the external tests
// drive it over programs whose packages import this one.
func (c *Core) CheckSideLists() error {
	var rdy, lq, sq, exec, bc, br, fence []int32
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
		if e.Inst.Op == isa.OpFence && !e.Node.Completed {
			fence = append(fence, e.Slot)
		}
		if err := c.checkBypassList(i); err != nil {
			return err
		}
	}
	execq, err := c.dueSlots()
	if err != nil {
		return err
	}
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
		{"fenceq", c.fenceq.slots(), fence},
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

// dueSlots lists the slots in execq's buckets, in slot order, and checks
// that each is filed under the cycle it completes and that the wheel marks
// exactly its nonempty buckets.
func (c *Core) dueSlots() ([]int32, error) {
	var out []int32
	d := &c.execq
	for b := 0; b <= int(d.mask); b++ {
		q := d.bucket(b)
		if full := d.full[b>>6]&(1<<(b&63)) != 0; full == isEmpty(q) {
			return nil, fmt.Errorf("cycle %d: execq bucket %d is marked full=%v, holds %v", c.cycle, b, full, q)
		}
		for w, word := range q {
			for ; word != 0; word &= word - 1 {
				i := w<<6 + bits.TrailingZeros64(word)
				if i >= len(c.rob) {
					return nil, fmt.Errorf("cycle %d: execq bucket %d holds slot %d past the ROB", c.cycle, b, i)
				}
				if at := max(c.rob[i].CompleteAt, c.cycle+1); int(at&d.mask) != b || at-c.cycle > d.mask {
					return nil, fmt.Errorf("cycle %d: execq files slot %d (CompleteAt %d) in bucket %d",
						c.cycle, i, c.rob[i].CompleteAt, b)
				}
				out = append(out, int32(i))
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// checkBypassList holds the bypass list of the entry at ROB position i to
// a walk over the older entries (see CheckSideLists).
func (c *Core) checkBypassList(i int) error {
	e := c.robAt(i)
	if !e.Inst.IsLoad() || !e.Issued {
		if e.Node.BypassGuards != 0 {
			return fmt.Errorf("cycle %d: seq %d (%v) is not an issued load but has BypassGuards=%d",
				c.cycle, e.Seq, e.Inst, e.Node.BypassGuards)
		}
		return nil
	}
	var want []int32
	for j := 0; j < i; j++ {
		if o := c.robAt(j); o.Inst.IsStore() && !o.AddrKnown && o.Seq > e.ForwardSeq {
			want = append(want, o.Slot)
		}
	}
	got := slices.Clone(c.bypassed[int(e.Slot)*c.p.SQSize:][:e.Node.BypassGuards])
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("cycle %d: seq %d (%v) has bypass list %v (BypassGuards=%d), a ROB walk gives %v",
			c.cycle, e.Seq, e.Inst, got, e.Node.BypassGuards, want)
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

// RingState reports the ROB ring's head slot, its occupancy and its size.
func (c *Core) RingState() (head, n, size int) { return c.robHead, c.robLen, len(c.rob) }

// RotateRing moves an empty ROB's head to ring slot head. Where the ring
// starts is invisible to a run, so a test may start one anywhere, such as
// just short of the wrap point.
func (c *Core) RotateRing(head int) {
	if c.robLen != 0 {
		panic("RotateRing on a ROB with entries in flight")
	}
	c.robHead = head
}
