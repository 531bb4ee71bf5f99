package ooo

import "fmt"

// The propagation sanitizer is a per-cycle oracle for the NDA invariant the
// whole defense rests on (paper §5): a value produced by an instruction that
// is unsafe under the active policy must not wake or feed any consumer until
// the instruction becomes safe and its tag is broadcast. The checks run over
// architecturally visible simulator state only — they recompute nothing from
// the policy beyond the compiled decision table's Unsafe (core.Rules, built
// once per core from the policy's gates) — so a bug in either the pipeline's
// broadcast plumbing or the policy bookkeeping trips them. They
// read regReady and Node.Broadcast, never the wake-up state (waiter sets,
// rdyq), so a consumer woken too early shows as issued-before-broadcast.
//
// Enabled by Params.Sanitize; off by default because the checks cost one
// age-ordered ROB walk per stepped cycle. The differential checker
// (internal/diffuzz), cmd/ndalint's cross-validation tests and the workload
// sanity tests run with it on. It does not force per-cycle stepping: Run
// and RunInsts still jump over dead cycles, where none of the checks below
// could find anything new (see Core.deadStep), and step every cycle after
// one that logged a finding, so counts and log match per-cycle stepping.
//
// Checks, at the end of every stepped cycle. The walk runs checks 1–2 on
// each in-flight producer and notes the (at most IssueWidth) entries that
// issued this cycle; checks 3–4 then run on those, in age order. They find
// a source register's in-flight writer through the ROB slot rename
// recorded for it (Core.sanWriter), which is that writer only while the
// entry in the slot still has the register as its destination: a writer
// that retired or was squashed left the slot reset or to a later entry.
//
//  1. ready-without-broadcast: no in-flight producer's destination physical
//     register is marked ready before the producer's tag broadcast. The
//     broadcast is the single point NDA defers, so a ready bit appearing any
//     other way is a propagation leak.
//  2. unsafe-broadcast: no instruction whose tag broadcast happened this
//     cycle is still unsafe under the policy at end of cycle. Guards only
//     resolve (never un-resolve) and bypass guards only drop within a
//     cycle, so an end-of-cycle unsafe verdict proves the broadcast-time
//     one. It reads the rules; checks 1, 3 and 4 read none. A shadow rule
//     table that never diverged (shadow.go) still gets this check's count:
//     a broadcast happens only where the arbitration loops asked the rules
//     and they allowed it, and the shadow, asked at the same point, allowed
//     it too. By the same monotonicity, both tables find it safe at end of
//     cycle, so the check counts nothing under either.
//  3. issued-before-broadcast: no instruction that entered execution this
//     cycle has an in-flight older producer (for any of its source
//     operands; store data is read at forwarding/commit time, not issue)
//     whose tag has not been broadcast.
//  4. forward-before-broadcast: no load that entered execution this cycle
//     took its value from an in-flight store whose DATA producer has not
//     broadcast. Store-to-load forwarding is the one dataflow edge that
//     does not go through a register read at issue, so check 3 cannot see
//     it; an unbroadcast value reaching a younger load through the store
//     queue is exactly the memory-laundering propagation leak.

// Violation is one sanitizer finding.
type Violation struct {
	Cycle  uint64
	Check  string
	PC     uint64
	Seq    uint64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s at pc=%#x seq=%d: %s", v.Cycle, v.Check, v.PC, v.Seq, v.Detail)
}

// maxSanitizerLog bounds the retained violation records; the count is exact.
const maxSanitizerLog = 32

// SanitizerViolations returns how many invariant violations the sanitizer
// observed (0 when Params.Sanitize is off).
func (c *Core) SanitizerViolations() uint64 { return c.sanCount }

// SanitizerLog returns up to maxSanitizerLog retained violations.
func (c *Core) SanitizerLog() []Violation { return c.sanLog }

func (c *Core) sanViolate(check string, pc, seq uint64, format string, args ...any) {
	c.sanCount++
	if len(c.sanLog) < maxSanitizerLog {
		//ndavet:allow alloclint:op sanitizer log append; runs only with Params.Sanitize set, and measured windows run with it off
		c.sanLog = append(c.sanLog, Violation{
			Cycle: c.cycle, Check: check, PC: pc, Seq: seq,
			//ndavet:allow alloclint:call sanitizer detail formatting; measured windows run with the sanitizer off
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// checkInvariants runs the checks over the ROB. Called at the end of Step
// (both the halted early-exit and the normal path).
func (c *Core) checkInvariants() {
	if !c.p.Sanitize {
		return
	}

	// The walk: per-producer checks.
	c.sanIssued.n = 0
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		if e.Issued && e.IssuedAt == c.cycle {
			c.sanIssued.push(e.Slot)
		}
		if e.DestP == noPReg {
			continue
		}
		if !e.Node.Broadcast && c.regReady[e.DestP] {
			c.sanViolate("ready-without-broadcast", e.PC, e.Seq,
				"p%d is ready but %v has not broadcast (completed=%v)",
				e.DestP, e.Inst, e.Node.Completed)
		}
		if e.Node.Broadcast && e.BcastCycle == c.cycle &&
			c.rules.Unsafe(&e.Node, c.atHead(e)) {
			c.sanViolate("unsafe-broadcast", e.PC, e.Seq,
				"%v broadcast this cycle while unsafe under %s (underGuard=%v bypassGuards=%d class=%d)",
				e.Inst, c.policy.Name, e.Node.UnderGuard, e.Node.BypassGuards, e.Node.Class)
		}
	}

	// Consumers that entered execution this cycle.
	for _, s := range c.sanIssued.slots() {
		e := c.entryAt(s)
		c.sanCheckSource(e, e.Src1P)
		if !e.Inst.Op.IsStore() {
			c.sanCheckSource(e, e.Src2P)
		}
		if e.Inst.Op.IsLoad() && e.ForwardSeq != 0 {
			c.sanCheckForward(e)
		}
	}
}

// writerOf returns the in-flight writer of physical register p, or nil
// if p's writer has left the ROB (p holds a committed value). The free
// list hands each register to at most one in-flight instruction.
func (c *Core) writerOf(p int) *Entry {
	if w := c.entryAt(c.sanWriter[p]); w.DestP == p {
		return w
	}
	return nil
}

// sanCheckForward applies check 4: the load e took its value from the store
// with sequence number e.ForwardSeq this cycle; the store's data operand
// must trace to a broadcast (or retired) producer.
func (c *Core) sanCheckForward(e *Entry) {
	for i := 0; i < c.robLen; i++ {
		s := c.robAt(i)
		if s.Seq != e.ForwardSeq {
			continue
		}
		if src := s.Src2P; src != noPReg {
			if w := c.writerOf(src); w != nil && w.Seq < s.Seq && !w.Node.Broadcast {
				c.sanViolate("forward-before-broadcast", e.PC, e.Seq,
					"%v forwarded from store seq %d whose data producer (seq %d, p%d) has not broadcast",
					e.Inst, s.Seq, w.Seq, src)
			}
		}
		return
	}
}

func (c *Core) sanCheckSource(e *Entry, src int) {
	if src == noPReg {
		return
	}
	if w := c.writerOf(src); w != nil && w.Seq < e.Seq && !w.Node.Broadcast {
		c.sanViolate("issued-before-broadcast", e.PC, e.Seq,
			"%v issued reading p%d before its producer (seq %d) broadcast",
			e.Inst, src, w.Seq)
	}
}
