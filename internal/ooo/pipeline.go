package ooo

import (
	"fmt"
	"math/bits"

	"nda/internal/cache"
	"nda/internal/core"
	"nda/internal/isa"
)

// Step advances the simulation by one cycle. Stages run back-to-front so
// that results flow between stages with realistic single-cycle visibility:
// completions and broadcasts happen before commit, commit before issue, and
// newly fetched instructions cannot dispatch until FrontEndDepth cycles
// after fetch.
//
//ndavet:hotpath
func (c *Core) Step() error {
	c.cycle++
	c.progress = false

	c.completeExecution()
	c.recomputeSafety()
	c.broadcastStage()
	if err := c.commitStage(); err != nil {
		return err
	}
	if c.halted {
		c.checkInvariants()
		return nil
	}
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.checkInvariants()

	if c.cycle-c.lastCommit > c.p.DeadlockCycles {
		return c.deadlockErr()
	}
	return nil
}

// deadlockErr builds the no-commit diagnostic. Step calls it only inside
// its error return, so the formatting stays off the measured hot path
// (alloclint's cold-span exemption covers return statements of
// error-returning functions).
func (c *Core) deadlockErr() error {
	head := "empty"
	if c.robLen > 0 {
		e := c.robAt(0)
		head = fmt.Sprintf("%v @%#x issued=%v completed=%v bcast=%v fault=%v",
			e.Inst, e.PC, e.Issued, e.Node.Completed, e.Node.Broadcast, e.Fault)
	}
	return fmt.Errorf("ooo: no commit for %d cycles at cycle %d (head: %s)", c.p.DeadlockCycles, c.cycle, head)
}

func (c *Core) readP(p int) uint64 {
	if p == noPReg {
		return 0
	}
	return c.regVal[p]
}

func (c *Core) pReady(p int) bool {
	if p == noPReg {
		return true
	}
	return c.regReady[p]
}

// ---- completion ----

// completeExecution finishes every issued entry whose execution latency
// elapsed this cycle: results are written to the physical register file
// (without marking it ready — that is the broadcast's job), branches
// resolve (possibly squashing), and store addresses resolve (possibly
// detecting memory-order violations). It reads only execq's bucket for
// this cycle, and leaves the entries it completed in doneq, in age order,
// for the safety pass and broadcast arbitration.
func (c *Core) completeExecution() {
	c.doneq.n = 0
	due := c.execq.take(c.cycle)
	if due == nil {
		return
	}
	// Move the entries due this cycle into doneq, sorting that handful by
	// age.
	for w, word := range due {
		for ; word != 0; word &= word - 1 {
			c.doneq.insert(c.rob, int32(w<<6+bits.TrailingZeros64(word)))
		}
		due[w] = 0
	}

	// Process them eldest first, as an age-ordered ROB walk would. A
	// branch that squashes resets every younger entry, including younger
	// ones due this cycle: those are skipped, and dropped from doneq.
	k := 0
	for _, s := range c.doneq.slots() {
		e := c.entryAt(s)
		if !e.Issued {
			continue // squashed by an older entry earlier in this loop
		}
		e.Node.Completed = true
		if e.DestP != noPReg {
			c.regVal[e.DestP] = e.Result
		} else {
			// Nothing to propagate: destination-less micro-ops are
			// trivially "broadcast".
			e.Node.Broadcast = true
		}
		if e.Inst.Op == isa.OpFence {
			c.fenceq.remove(s)
		}
		if e.Inflight {
			e.Inflight = false
			if e.OffChip {
				c.offChipLoads--
			}
		}

		switch {
		case e.Node.Class == isa.ClassBranch:
			c.resolveBranch(e)
		case e.Inst.Op == isa.OpJal:
			// Direct jump: fetch already followed it; nothing to resolve.
			e.Node.GuardResolved = true
		case e.Inst.Op.IsStore():
			c.resolveStore(e)
		}
		c.doneq.s[k] = s
		k++
	}
	c.doneq.n = k
	c.progress = true
}

// resolveBranch trains the predictors with the branch's actual outcome,
// resumes a waiting front end, and squashes on misprediction. BTB updates
// happen here — at execution, on speculative and wrong paths alike — and
// are never rolled back: the paper's §3 covert channel.
func (c *Core) resolveBranch(e *Entry) {
	e.Node.GuardResolved = true
	c.brq.remove(e.Slot)
	c.stats.BranchesResolved++

	if e.Inst.Op.IsCondBranch() && e.HasGshCkpt {
		c.gsh.Update(e.PC, e.Taken, e.GshCkpt)
	}
	if e.Inst.Op == isa.OpJalr && c.p.SpeculativeBTBUpdate {
		c.btb.Update(e.PC, e.Target)
		c.traceChannel(ChanBTBUpdate, e.PC, e.Target)
	}

	if !e.Predicted {
		// The front end stalled waiting for this branch (BTB miss,
		// RAS underflow, or SpecOff mode): resume, no squash.
		if c.fetchWait && c.fetchWaitSq == e.Seq {
			c.fetchWait = false
			c.fetchDead = false
			c.fetchPC = e.Target
			if c.fetchStall < c.cycle+1 {
				c.fetchStall = c.cycle + 1
			}
		}
		return
	}

	mispredicted := e.PredTaken != e.Taken || (e.Taken && e.PredTarget != e.Target)
	if !mispredicted {
		return
	}
	c.stats.Mispredicts++
	next := e.Target
	if !e.Taken {
		next = e.PC + isa.InstBytes
	}
	c.squashFrom(e.Seq+1, next)
	if e.Inst.Op.IsCondBranch() && e.HasGshCkpt {
		// The squash rewound history to just after this branch's
		// (wrong) predicted bit; replace it with the actual outcome.
		c.gsh.Restore(e.GshCkpt, e.Taken)
	}
}

// resolveStore publishes a store's now-known address: younger loads that
// already executed with stale data are squashed (memory-order violation),
// and surviving loads drop their bypass guards on this store.
func (c *Core) resolveStore(e *Entry) {
	e.AddrKnown = true
	e.Node.GuardResolved = true

	// Violation scan: the eldest younger load that read overlapping data
	// from anywhere older than this store observed a stale value.
	var victim *Entry
	size := e.Inst.Op.MemBytes()
	for _, li := range c.lq.slots() {
		ld := c.entryAt(li)
		if ld.Seq <= e.Seq || !ld.Issued || !ld.AddrKnown {
			continue
		}
		if overlaps(e.Addr, size, ld.Addr, ld.Inst.Op.MemBytes()) && ld.ForwardSeq < e.Seq {
			if victim == nil || ld.Seq < victim.Seq {
				victim = ld
			}
		}
	}
	if victim != nil {
		c.stats.OrderViolations++
		c.squashFrom(victim.Seq, victim.PC)
	}
	// Clear the bypass guards this store held on surviving loads. This must
	// happen even on the violation path: the store resolves exactly once,
	// and loads older than the squash point live on. A list is a set, so
	// the last slot fills the hole.
	for _, li := range c.lq.slots() {
		ld := c.entryAt(li)
		byp := c.bypassed[int(li)*c.p.SQSize:][:ld.Node.BypassGuards]
		for i, s := range byp {
			if s == e.Slot {
				byp[i] = byp[len(byp)-1]
				ld.Node.BypassGuards--
				break
			}
		}
	}
}

// ---- safety & broadcast ----

// noGuard is guardSeq when no branch is unresolved: above every Seq.
const noGuard = ^uint64(0)

// recomputeSafety runs the NDA resolve-walk of §5.1 — mark instructions
// safe up to the eldest unresolved branch — and applies InvisiSpec-Spectre
// exposures for loads that left the speculative shadow.
//
// The walk is incremental. brq's head is the guard horizon: an entry is
// under a guard iff it is younger than the head. Dispatch sets the bit
// right for new entries, and a squash removes only entries younger than
// every survivor, so bits go stale only when the head resolves. The walk
// then clears the bits between the old horizon (guardSeq) and the new
// one, and touches nothing else. When the old horizon is noGuard, every
// older entry was dispatched clear of guards, so there is nothing to
// clear: a branch dispatched into an empty brq is recorded as the horizon
// by the next walk, which runs before that branch can issue, let alone
// resolve.
func (c *Core) recomputeSafety() {
	if !c.rules.Walk {
		return
	}
	prev := c.guardSeq
	horizon := noGuard
	if c.brq.n > 0 {
		horizon = c.rob[c.brq.head()].Seq
	}
	// [lo, hi) are the ROB positions this walk clears.
	lo, hi := 0, 0
	if horizon != prev {
		hi = c.robLen
		if horizon != noGuard {
			hi = c.robPos(c.brq.head()) + 1
		}
		lo = hi
		for lo > 0 && c.robAt(lo-1).Seq > prev {
			lo--
			c.robAt(lo).Node.UnderGuard = false
		}
		c.guardSeq = horizon
	}

	if c.rules.Fill != core.FillAtResolve {
		return
	}
	// A load becomes exposable when it completes clear of guards, or when
	// the walk clears its guard after completion; earlier passes exposed
	// every other candidate. Both sets, merged in age order: the entries
	// completed this cycle at or below the old horizon, then the cleared
	// range (which holds the rest of this cycle's unguarded completions).
	for _, s := range c.doneq.slots() {
		e := c.entryAt(s)
		if e.Seq > prev {
			break
		}
		c.exposeIfSafe(e)
	}
	for i := lo; i < hi; i++ {
		c.exposeIfSafe(c.robAt(i))
	}
}

// exposeIfSafe installs the hidden fill of a completed InvisiSpec load that
// no longer follows an unresolved branch.
func (c *Core) exposeIfSafe(e *Entry) {
	if e.Invisible && !e.Exposed && e.Node.Completed && !e.Node.UnderGuard {
		c.hier.InstallData(e.Addr)
		c.traceChannel(ChanDCacheExpose, e.Addr, 0)
		e.Exposed = true
		c.stats.Exposures++
		c.progress = true
	}
}

// broadcastStage arbitrates the tag broadcast ports: instructions completing
// this cycle have priority; deferred (completed earlier, newly safe)
// instructions compete for the remaining ports in age order (§5.1). The
// deferred candidates are exactly bcq, in age order.
//
// A register writer completing this cycle that does not broadcast joins
// bcq once arbitration is over. Among the deferred candidates it would be
// a no-op this cycle: it is not broadcast-eligible, or no port is left.
func (c *Core) broadcastStage() {
	if c.bcq.n == 0 && c.doneq.n == 0 {
		return
	}
	ports := c.p.BroadcastPorts

	for _, s := range c.doneq.slots() {
		if ports == 0 {
			break
		}
		e := c.entryAt(s)
		if e.DestP != noPReg && c.rules.MayBroadcast(&e.Node, c.atHead(e)) {
			c.doBroadcast(e)
			ports--
		}
	}
	for i := 0; i < c.bcq.n && ports > 0; {
		e := c.entryAt(c.bcq.s[i])
		if !c.rules.MayBroadcast(&e.Node, c.atHead(e)) {
			i++
			continue
		}
		if !e.HasSafeSince {
			e.HasSafeSince = true
			e.SafeSince = c.cycle
			c.progress = true
		}
		if c.cycle < e.SafeSince+uint64(c.policy.ExtraBroadcastDelay) {
			i++
			continue
		}
		c.doBroadcast(e)
		c.bcq.removeAt(i)
		ports--
	}
	for _, s := range c.doneq.slots() {
		if e := c.entryAt(s); e.DestP != noPReg && !e.Node.Broadcast {
			c.bcq.insert(c.rob, s)
		}
	}
}

func (c *Core) doBroadcast(e *Entry) {
	c.regReady[e.DestP] = true
	c.wake(e.DestP)
	e.Node.Broadcast = true
	e.BcastCycle = c.cycle
	c.progress = true
	if c.cycle > e.CompleteAt {
		c.stats.DeferredBroadcasts++
		c.stats.DeferralCycles += c.cycle - e.CompleteAt
	}
}

// ---- wake-up ----

// wakeSrcs returns the source registers e must see broadcast before it may
// issue, noPReg for an absent one: both sources, except that a store waits
// only for its address base (its data register is read at forwarding time
// and at commit), and a register named twice is returned once.
func (e *Entry) wakeSrcs() (int, int) {
	if e.Inst.Op.IsStore() || e.Src2P == e.Src1P {
		return e.Src1P, noPReg
	}
	return e.Src1P, e.Src2P
}

// waitOn enters the unissued entry e in p's waiter set if p has not
// broadcast yet.
func (c *Core) waitOn(e *Entry, p int) {
	if p == noPReg || c.regReady[p] {
		return
	}
	c.waiters[p*c.waitWords+int(e.Slot>>6)] |= 1 << (e.Slot & 63)
	e.waiting++
}

// unwait takes e out of p's waiter set (a no-op if it is not in it).
func (c *Core) unwait(e *Entry, p int) {
	if p != noPReg {
		c.waiters[p*c.waitWords+int(e.Slot>>6)] &^= 1 << (e.Slot & 63)
	}
}

// wake delivers p's tag broadcast to the entries waiting on it: each one's
// count drops, an entry left with nothing to wait for joins rdyq in age
// order, and the set empties.
func (c *Core) wake(p int) {
	w := c.waiters[p*c.waitWords : (p+1)*c.waitWords]
	for i, word := range w {
		for word != 0 {
			slot := int32(i<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			e := &c.rob[slot]
			e.waiting--
			if e.waiting == 0 {
				c.rdyq.insert(c.rob, slot)
			}
		}
		w[i] = 0
	}
}

func (c *Core) atHead(e *Entry) bool {
	return c.robLen > 0 && c.robAt(0) == e
}

// ---- commit ----

func (c *Core) commitStage() error {
	committed, err := c.commitInsts()
	// The per-cycle stall accounting. skipTo replicates the committed==0
	// arm for bulk-skipped dead cycles; the two must stay in lockstep.
	switch {
	case committed > 0:
		c.stats.CommitCycles++
		c.lastCommit = c.cycle
		c.progress = true
	case c.robLen == 0:
		c.stats.FrontendStalls++
	case c.robAt(0).isMem() && !c.robAt(0).Node.Completed:
		c.stats.MemStallCycles++
	default:
		c.stats.BackendStalls++
	}
	c.stats.Cycles++
	c.stats.Committed += uint64(committed)
	if c.offChipLoads > 0 {
		c.stats.MLPSum += uint64(c.offChipLoads)
		c.stats.MLPCycles++
	}
	return err
}

// commitInsts retires up to CommitWidth ready instructions from the ROB
// head and reports how many retired (commitStage wraps it with the stall
// accounting the old deferred closure used to do).
func (c *Core) commitInsts() (int, error) {
	committed := 0

	if c.commitValidate > c.cycle {
		return committed, nil // InvisiSpec validation in progress blocks retirement
	}

	for budget := c.p.CommitWidth; budget > 0 && c.robLen > 0; budget-- {
		e := c.robAt(0)
		if !e.Node.Completed {
			return committed, nil
		}

		// A completed faulting head delivers its fault now, before any
		// wait for its own tag broadcast and before InvisiSpec exposure:
		// the fault squashes the dependents instead of waking them, and a
		// squashed invisible load is never exposed or validated. Waiting
		// on an NDA-deferred broadcast first would invert that order —
		// the eldest-unretired wake-up would land a cycle before the
		// squash, giving a direct dependent of the faulting load one
		// cycle to issue and fill the cache.
		if e.Fault != isa.FaultNone {
			if c.TraceRetire != nil {
				c.traceRetire(e)
			}
			c.retired++
			committed++
			c.stats.Faults++
			return committed, c.deliverFault(e)
		}

		if e.DestP != noPReg && !e.Node.Broadcast {
			return committed, nil // waiting for a (possibly NDA-deferred) broadcast
		}
		if c.rules.WaitsForEldest(e.Node.Class) &&
			e.DestP != noPReg && e.BcastCycle == c.cycle {
			// Load restriction: the head-of-ROB wake-up and the retirement
			// are sequential commit-stage actions — the load retires the
			// cycle after it wakes its dependents (§5.3).
			return committed, nil
		}

		// InvisiSpec exposure/validation at the retirement safe point.
		if e.Invisible && !e.Exposed {
			c.hier.InstallData(e.Addr)
			c.traceChannel(ChanDCacheExpose, e.Addr, 0)
			e.Exposed = true
			c.stats.Exposures++
			c.progress = true
			if !e.WasPresent {
				lat := uint64(c.hier.Params().L1D.HitLatency)
				c.commitValidate = c.cycle + lat
				c.stats.ValidationStall += lat
				return committed, nil // retire after validation completes
			}
		}

		if err := c.retire(e); err != nil {
			return committed, err
		}
		committed++
		if c.halted {
			return committed, nil
		}
	}
	return committed, nil
}

// retire commits the head entry's architectural side effects and frees it.
func (c *Core) retire(e *Entry) error {
	if c.TraceRetire != nil {
		c.traceRetire(e)
	}
	inst := e.Inst
	switch {
	case inst.Op.IsStore():
		c.mem.Write(e.Addr, inst.Op.MemBytes(), c.readP(e.Src2P))
		c.hier.Data(e.Addr) // timing side effect of the store's fill
		c.traceChannel(ChanDCacheFill, e.Addr, 0)
		if c.sq.n > 0 && c.sq.head() == e.Slot {
			c.sq.removeAt(0)
		}
	case inst.Op.IsLoad():
		if c.lq.n > 0 && c.lq.head() == e.Slot {
			c.lq.removeAt(0)
		}
	case inst.Op == isa.OpWrmsr:
		c.msr[uint16(inst.Imm)] = c.readP(e.Src1P)
	case inst.Op == isa.OpSpecOff:
		c.noSpec = true
		// The front end stopped at this instruction; resume it now that
		// the no-speculation window is architecturally active.
		if c.fetchDead {
			c.fetchDead = false
			c.fetchPC = e.PC + isa.InstBytes
			if c.fetchStall < c.cycle+1 {
				c.fetchStall = c.cycle + 1
			}
			c.lastFetchLine = ^uint64(0)
		}
	case inst.Op == isa.OpSpecOn:
		c.noSpec = false
	case inst.Op == isa.OpJalr && !c.p.SpeculativeBTBUpdate:
		c.btb.Update(e.PC, e.Target)
		c.traceChannel(ChanBTBUpdate, e.PC, e.Target)
	case inst.Op == isa.OpInvalid:
		return fmt.Errorf("ooo: committed invalid instruction at pc=%#x", e.PC)
	case inst.Op == isa.OpHalt:
		c.halted = true
	}

	if e.DestP != noPReg && e.PrevP != noPReg {
		c.freeReg(e.PrevP)
	}
	if e.Issued {
		c.stats.DispatchToIssueSum += e.IssuedAt - e.DispatchedAt
		c.stats.DispatchToIssueCount++
	}
	c.retired++
	e.reset()
	c.robHead = ringIndex(c.robHead, 1, len(c.rob))
	c.robLen--
	return nil
}

// traceRetire emits the head entry's record to the armed TraceRetire hook:
// at retirement, or, for a faulting head, at the commit that delivers its
// fault. Callers check the hook first, so an unarmed core pays no call.
func (c *Core) traceRetire(e *Entry) {
	ev := TraceEvent{
		Seq: e.Seq, PC: e.PC, Inst: e.Inst, Fault: e.Fault,
		Fetch: e.FetchedAt, Dispatch: e.DispatchedAt,
		Issue: e.IssuedAt, Complete: e.CompleteAt, Retire: c.cycle,
	}
	if e.DestP != noPReg {
		ev.Broadcast = e.BcastCycle
	}
	//ndavet:allow alloclint:call trace hook; nil in measured runs
	c.TraceRetire(ev)
}

// deliverFault takes the architectural fault at the head of the ROB:
// everything from the faulting instruction on is squashed and fetch vectors
// to the trap handler. Without a handler the fault is fatal.
func (c *Core) deliverFault(e *Entry) error {
	handler := c.msr[isa.MSRTrapHandler]
	if handler == 0 {
		return fmt.Errorf("ooo: unhandled fault %v at pc=%#x addr=%#x", e.Fault, e.PC, e.Addr)
	}
	c.msr[isa.MSRTrapCause] = uint64(e.Fault)
	c.msr[isa.MSRTrapAddr] = e.Addr
	if e.Inst.Op == isa.OpRdmsr || e.Inst.Op == isa.OpWrmsr {
		c.msr[isa.MSRTrapAddr] = uint64(uint16(e.Inst.Imm))
	}
	c.squashFrom(e.Seq, handler)
	return nil
}

// freeReg returns p to the free list. The list never holds more than
// PhysRegs registers, the size of its backing array.
func (c *Core) freeReg(p int) {
	c.freeList[c.freeN] = p
	c.freeN++
}

// ---- squash ----

// squashFrom removes every instruction with sequence number >= seq from the
// pipeline — fetch queue and ROB — restoring the rename table, free list,
// and predictor checkpoints, then redirects fetch to newPC.
func (c *Core) squashFrom(seq, newPC uint64) {
	c.stats.Squashes++
	c.progress = true

	// Fetch queue slots are the youngest instructions; rewind their
	// predictor checkpoints youngest-first, then drop them all (their seqs
	// are always >= any ROB seq, and squash points never land inside the
	// fetch queue's seq range with entries to keep). Slot seqs ascend with
	// queue position, so dropping is a tail truncation of the ring.
	for i := c.fqLen - 1; i >= 0; i-- {
		j := ringIndex(c.fqHead, i, len(c.fetchQ))
		s := &c.fetchQ[j]
		if s.seq < seq {
			continue
		}
		if s.hasGshCkpt {
			c.gsh.SetHistory(s.gshCkpt)
		}
		if s.hasRASCkpt {
			c.ras.Restore(c.fqRAS[j])
		}
	}
	for c.fqLen > 0 && c.fqAt(c.fqLen-1).seq >= seq {
		c.fqLen--
	}

	// Drop squashed entries from the schedulers and side lists before the
	// ROB walk resets them (reset zeroes Seq, which the filter keys on).
	c.filterQueues(seq)

	n := c.robLen
	for c.robLen > 0 {
		e := c.robAt(c.robLen - 1)
		if e.Seq < seq {
			break
		}
		if e.DestP != noPReg {
			rd, _ := e.Inst.WritesReg()
			c.rat[rd] = e.PrevP
			c.freeReg(e.DestP)
		}
		if !e.Issued {
			c.iqLen--
			if e.waiting > 0 {
				// A surviving producer must not wake this slot's next
				// occupant.
				a, b := e.wakeSrcs()
				c.unwait(e, a)
				c.unwait(e, b)
			}
		}
		if e.HasGshCkpt {
			c.gsh.SetHistory(e.GshCkpt)
		}
		if e.HasRASCkpt {
			c.ras.Restore(c.robRAS[e.Slot])
		}
		if e.Inflight && e.OffChip {
			c.offChipLoads--
		}
		c.stats.SquashedInsts++
		e.reset()
		c.robLen--
	}
	// The squashed entries held ROB positions robLen..n-1: a ring range of
	// slots, in two pieces where it wraps.
	if lo, k := ringIndex(c.robHead, c.robLen, len(c.rob)), n-c.robLen; lo+k <= len(c.rob) {
		c.execq.drop(lo, lo+k)
	} else {
		c.execq.drop(lo, len(c.rob))
		c.execq.drop(0, lo+k-len(c.rob))
	}

	if c.fetchWait && c.fetchWaitSq >= seq {
		c.fetchWait = false
	}
	c.fetchDead = false
	c.fetchPC = newPC
	if s := c.cycle + uint64(c.p.RedirectPenalty); s > c.fetchStall {
		c.fetchStall = s
	}
	c.lastFetchLine = ^uint64(0)
}

// filterQueues drops the squashed slots from every scheduler and side list
// but execq, which squashFrom clears by ring position, and doneq. A squash
// during completion happens while completeExecution iterates doneq, and it
// skips the squashed entries itself; a squash at commit comes after the
// last stage that reads doneq this cycle.
func (c *Core) filterQueues(seq uint64) {
	c.rdyq.filter(c.rob, seq)
	c.lq.filter(c.rob, seq)
	c.sq.filter(c.rob, seq)
	c.brq.filter(c.rob, seq)
	c.bcq.filter(c.rob, seq)
	c.fenceq.filter(c.rob, seq)
}

// ---- issue & execute ----

// issueStage issues up to IssueWidth entries in age order. It selects from
// rdyq, the unissued entries whose operands have all broadcast, rather than
// the whole issue queue: an entry not on it could not issue anyway, so the
// selected set is the one an age-ordered walk of the issue queue picks. It
// compacts the issued entries out of rdyq in the same pass.
func (c *Core) issueStage() {
	budget := c.p.IssueWidth
	issued := 0
	k, i := 0, 0
	for ; i < c.rdyq.n && budget > 0; i++ {
		s := c.rdyq.s[i]
		e := c.entryAt(s)
		if e.RetryAt <= c.cycle && !c.serializeBlocked(e) {
			if c.execute(e) {
				e.Issued = true
				e.IssuedAt = c.cycle
				c.execq.add(e.CompleteAt, c.cycle, s)
				c.iqLen--
				budget--
				issued++
				continue
			}
			// Replay scheduled: RetryAt moved, so the cycle is not dead
			// even though nothing issued.
			c.progress = true
		}
		c.rdyq.s[k] = s
		k++
	}
	c.rdyq.n = k + copy(c.rdyq.s[k:], c.rdyq.s[i:c.rdyq.n])
	if issued > 0 {
		c.stats.ILPSum += uint64(issued)
		c.stats.ILPCycles++
		c.progress = true
	}
}

// serializeBlocked enforces FENCE (no younger instruction may issue until
// the fence completes; the fence itself waits for all older instructions to
// complete) and RDCYCLE (waits for all older instructions to complete, like
// rdtscp's pseudo-serialization).
func (c *Core) serializeBlocked(e *Entry) bool {
	switch e.Inst.Op {
	case isa.OpFence, isa.OpRdcycle, isa.OpSpecOff, isa.OpSpecOn, isa.OpHalt:
		return !c.oldersCompleted(e)
	case isa.OpRdmsr:
		// WRMSR takes architectural effect at commit, so an MSR read must
		// wait for older in-flight writes to the same MSR to drain. It may
		// still issue speculatively otherwise — the LazyFP/v3a leak path.
		if c.olderMSRWritePending(e) {
			return true
		}
	}
	return c.olderFencePending(e)
}

// olderMSRWritePending reports whether an older un-retired WRMSR targets the
// same MSR as the read e.
func (c *Core) olderMSRWritePending(e *Entry) bool {
	for i := 0; i < c.robLen; i++ {
		o := c.robAt(i)
		if o.Seq >= e.Seq {
			return false
		}
		if o.Inst.Op == isa.OpWrmsr && o.Inst.Imm == e.Inst.Imm {
			return true
		}
	}
	return false
}

func (c *Core) oldersCompleted(e *Entry) bool {
	for i := 0; i < c.robLen; i++ {
		o := c.robAt(i)
		if o.Seq >= e.Seq {
			return true
		}
		if !o.Node.Completed {
			return false
		}
	}
	return true
}

// olderFencePending reports whether an uncompleted FENCE older than e is in
// flight: whether fenceq's head, the eldest, is older than e.
func (c *Core) olderFencePending(e *Entry) bool {
	return c.fenceq.n > 0 && c.rob[c.fenceq.head()].Seq < e.Seq
}

// execute begins execution of e this cycle: operands are read, the result
// (and any fault) is computed, and CompleteAt is scheduled. Loads perform
// their forwarding scan and cache access here — wrong-path fills included.
// Returns false if the instruction must replay (store-to-load conflict not
// yet forwardable).
func (c *Core) execute(e *Entry) bool {
	inst := e.Inst
	lat := c.p.execLatency(inst.Op)

	switch {
	case isa.IsALU(inst.Op):
		a := c.readP(e.Src1P)
		if inst.Op == isa.OpLui {
			a = 0
		}
		e.Result = isa.EvalALU(inst.Op, a, isa.ALUOperandB(inst, c.readP(e.Src2P)))

	case inst.Op.IsCondBranch():
		e.Taken = isa.EvalBranch(inst.Op, c.readP(e.Src1P), c.readP(e.Src2P))
		if e.Taken {
			e.Target = uint64(inst.Imm)
		} else {
			e.Target = e.PC + isa.InstBytes
		}

	case inst.Op == isa.OpJal:
		e.Result = e.PC + isa.InstBytes
		e.Taken = true
		e.Target = uint64(inst.Imm)

	case inst.Op == isa.OpJalr:
		e.Result = e.PC + isa.InstBytes
		e.Taken = true
		e.Target = (c.readP(e.Src1P) + uint64(inst.Imm)) &^ 1

	case inst.Op.IsLoad():
		return c.executeLoad(e)

	case inst.Op.IsStore():
		e.Addr = c.readP(e.Src1P) + uint64(inst.Imm)
		if c.userMode && !c.mem.UserAccessOK(e.Addr, inst.Op.MemBytes()) {
			e.Fault = isa.FaultKernelStore
		}

	case inst.Op == isa.OpRdcycle:
		e.Result = c.cycle

	case inst.Op == isa.OpRdmsr:
		msr := uint16(inst.Imm)
		if msr >= isa.NumMSR || (c.userMode && isa.PrivilegedMSR(msr)) {
			e.Fault = isa.FaultPrivilegeMSR
			if c.p.MeltdownVulnerable && msr < isa.NumMSR {
				e.Result = c.msr[msr] // the LazyFP/v3a flaw: data flows anyway
			}
		} else {
			e.Result = c.msr[msr]
		}

	case inst.Op == isa.OpWrmsr:
		msr := uint16(inst.Imm)
		if msr >= isa.NumMSR || (c.userMode && isa.PrivilegedMSR(msr)) {
			e.Fault = isa.FaultPrivilegeMSR
		}

	case inst.Op == isa.OpClflush:
		e.Addr = c.readP(e.Src1P) + uint64(inst.Imm)
		c.hier.Flush(e.Addr)
		c.traceChannel(ChanDCacheFlush, e.Addr, 0)

	case inst.Op == isa.OpFence, inst.Op == isa.OpNop, inst.Op == isa.OpHalt,
		inst.Op == isa.OpSpecOff, inst.Op == isa.OpSpecOn:
		// Nothing to compute.
	}

	e.CompleteAt = c.cycle + uint64(lat)
	return true
}

// executeLoad performs address generation, the store-queue scan
// (forwarding, replay, or speculative bypass), the protection check, and
// the cache access.
func (c *Core) executeLoad(e *Entry) bool {
	inst := e.Inst
	e.Addr = c.readP(e.Src1P) + uint64(inst.Imm)
	e.AddrKnown = true
	size := inst.Op.MemBytes()

	// Scan older stores youngest-first. The first address-known overlap
	// decides: full coverage with ready data forwards; anything else
	// replays until the store drains. Address-unknown older stores are
	// speculatively bypassed and recorded.
	var fwd *Entry
	byp := c.bypassed[int(e.Slot)*c.p.SQSize:]
	n := 0
	for i := c.sq.n - 1; i >= 0; i-- {
		s := c.entryAt(c.sq.s[i])
		if s.Seq > e.Seq {
			continue
		}
		if !s.Issued || !s.AddrKnown {
			byp[n] = s.Slot
			n++
			continue
		}
		ssize := s.Inst.Op.MemBytes()
		if !overlaps(s.Addr, ssize, e.Addr, size) {
			continue
		}
		if covers(s.Addr, ssize, e.Addr, size) && c.pReady(s.Src2P) {
			fwd = s
		} else {
			// Partial overlap or data not yet propagatable: replay.
			e.RetryAt = c.cycle + 2
			c.stats.LoadReplays++
			return false
		}
		break
	}

	e.Node.BypassGuards = n
	if n > 0 {
		c.stats.BypassedLoads++
	}

	if c.userMode && !c.mem.UserAccessOK(e.Addr, size) {
		e.Fault = isa.FaultKernelLoad
	}

	if fwd != nil {
		c.stats.LoadForwards++
		e.ForwardSeq = fwd.Seq
		val := c.readP(fwd.Src2P) >> (8 * (e.Addr - fwd.Addr))
		e.Result = truncate(val, size)
		e.CompleteAt = c.cycle + uint64(c.p.AGULatency+c.p.ForwardLatency)
	} else {
		var res cache.Result
		invisible := false
		switch c.rules.Fill {
		case core.FillAtResolve:
			// InvisiSpec-Spectre: a load is speculative iff some OLDER
			// branch is unresolved; younger branches are irrelevant.
			invisible = c.olderUnresolvedBranch(e)
		case core.FillAtRetire:
			invisible = true
		}
		if invisible {
			res = c.hier.DataNoInstall(e.Addr)
			e.Invisible = true
			e.WasPresent = res.Level == cache.LevelL1
			c.stats.InvisibleLoads++
		} else {
			res = c.hier.Data(e.Addr)
			c.traceChannel(ChanDCacheFill, e.Addr, 0)
		}
		e.Result = truncate(c.mem.Read(e.Addr, size), size)
		e.CompleteAt = c.cycle + uint64(c.p.AGULatency+res.Latency)
		if res.OffChip() {
			e.OffChip = true
			c.offChipLoads++
		}
		e.Inflight = true
	}

	if e.Fault != isa.FaultNone && !c.p.MeltdownVulnerable {
		e.Result = 0 // a fixed core zeroes the faulting load's data
	}
	return true
}

// olderUnresolvedBranch reports whether a branch older than e has not yet
// resolved its direction and target: whether brq's head, the eldest
// unresolved branch, is older than e.
func (c *Core) olderUnresolvedBranch(e *Entry) bool {
	return c.brq.n > 0 && c.rob[c.brq.head()].Seq < e.Seq
}

func truncate(v uint64, size int) uint64 {
	switch size {
	case 1:
		return v & 0xFF
	case 4:
		return v & 0xFFFFFFFF
	}
	return v
}
