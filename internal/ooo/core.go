package ooo

import (
	"errors"
	"fmt"

	"nda/internal/bpred"
	"nda/internal/cache"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/mem"
)

// Core is one out-of-order processor instance executing one program.
type Core struct {
	p      Params
	policy core.Policy

	prog *isa.Program
	mem  *mem.Memory
	hier *cache.Hierarchy
	gsh  *bpred.Gshare
	btb  *bpred.BTB
	ras  *bpred.RAS

	cycle   uint64
	nextSeq uint64

	// Physical register file. freeList[:freeN] is the free list, a stack
	// over a backing array of PhysRegs entries.
	regVal   []uint64
	regReady []bool
	freeList []int
	freeN    int
	rat      [isa.NumGPR]int

	// Wake-up state: waiters holds, for every physical register, a bitmask
	// over ROB ring slots of the unissued entries waiting on its tag
	// broadcast (waitWords words per register). Each such entry's
	// Entry.waiting counts the sets it is in. Dispatch enters an entry in
	// the set of each unready source, doBroadcast wakes and empties the
	// register's set, and a squash takes the squashed entries out.
	waiters   []uint64
	waitWords int

	// Reorder buffer: fixed ring.
	rob     []Entry
	robHead int
	robLen  int

	// Schedulers, in age order: ROB ring slots (Entry.Slot). Capacity is
	// fixed at construction, so dispatch and squash never allocate. The
	// issue queue itself is only an occupancy count (iqLen, the unissued
	// entries, bounded by IQSize); select reads rdyq, the unissued entries
	// whose source operands have all broadcast.
	iqLen int
	rdyq  slotQueue
	lq    slotQueue
	sq    slotQueue

	// Side lists of the entries each per-cycle stage acts on, so no stage
	// walks the whole ROB (see README "Performance"):
	//   - execq: issued, not yet completed (issue order). completeExecution
	//     and nextEventCycle read it.
	//   - brq: unresolved ClassBranch entries (age order). Its head is the
	//     eldest unresolved branch, the guard horizon of the resolve-walk.
	//   - bcq: completed register writers awaiting their tag broadcast (age
	//     order), the deferred-broadcast candidates.
	//   - doneq: scratch for the entries completing this cycle (age order).
	execq slotQueue
	brq   slotQueue
	bcq   slotQueue
	doneq slotQueue
	// guardSeq is the guard horizon the last resolve-walk left: the Seq of
	// the eldest unresolved branch then, or noGuard if there was none.
	guardSeq uint64

	// Front end. fetchQ is a fixed ring of FetchQSize slots.
	fetchQ      []fetchSlot
	fqHead      int
	fqLen       int
	fetchPC     uint64
	fetchStall  uint64 // fetch idle until this cycle
	fetchWait   bool   // fetch blocked on an unresolved control instruction
	fetchWaitSq uint64 // seq of the instruction fetch waits on
	fetchDead   bool   // fetch ran off the text segment or past a halt; waits for redirect
	noSpec      bool   // SpecOff window active (committed)

	// lastFetchLine caches the line address most recently charged to L1I,
	// so sequential fetch within a line pays the I-cache once.
	lastFetchLine uint64

	msr      [isa.NumMSR]uint64
	userMode bool
	halted   bool

	// Cancel, when non-nil, aborts Run/RunInsts with ErrCancelled shortly
	// after the channel closes (checked every cancelStride cycles). The
	// evaluation drivers wire ctx.Done() here so in-flight simulations stop
	// promptly on timeout or job cancellation.
	Cancel <-chan struct{}

	// TraceCommit, when non-nil, is called for every committed instruction
	// (including faulting ones) in program order. Used by differential
	// tests and the ndasim -trace flag.
	TraceCommit func(pc uint64, inst isa.Inst)

	// TraceRetire, when non-nil, receives a full per-instruction timing
	// record at retirement; package trace renders these into pipeline
	// diagrams.
	TraceRetire func(ev TraceEvent)

	// TraceChannel, when non-nil, receives every attacker-observable
	// microarchitectural state mutation: d-cache installs (demand fills
	// and InvisiSpec exposures), flushes, and BTB updates. InvisiSpec's
	// DataNoInstall accesses are deliberately absent — their whole point
	// is to leave no measurable state. The differential fuzzing harness
	// (internal/diffuzz) hashes this stream for two runs that differ only
	// in planted secret bytes; a hash mismatch is a covert-channel
	// transmission.
	TraceChannel func(ev ChannelEvent)

	retired      uint64
	lastCommit   uint64 // cycle of the last commit (deadlock guard)
	offChipLoads int    // currently outstanding DRAM loads

	// Event-loop bookkeeping. progress is cleared at the top of every Step
	// and set by any stage that changes simulator state; a cycle that ends
	// with it clear is provably identical to the next one except for
	// time-gated events, so Run/RunInsts jump c.cycle to the next event
	// horizon (nextEventCycle) instead of stepping through dead cycles.
	progress bool
	// fencesInFlight counts un-completed FENCEs in the ROB, the early-out
	// for olderFencePending's per-issue-candidate scan.
	fencesInFlight int
	// lastCancelPoll is the cycle of the most recent Cancel-channel poll;
	// polls trigger on elapsed distance so event jumps cannot starve them.
	lastCancelPoll uint64

	// commitValidate models InvisiSpec validation: commit is blocked until
	// this cycle while an exposed load validates.
	commitValidate uint64

	// Propagation-sanitizer state (sanitizer.go); inert unless p.Sanitize.
	sanCount       uint64
	sanLog         []Violation
	sanWriterMark  []uint64
	sanWriterSeq   []uint64
	sanWriterBcast []bool

	stats Stats
}

// New builds a core executing prog on the given memory image (which must
// already contain the program's data; see emu.Load) under the given policy.
// It allocates every buffer the core will ever use, then Resets into them,
// so a fresh core and a reset one are the same by construction.
func New(prog *isa.Program, m *mem.Memory, pol core.Policy, p Params) *Core {
	waitWords := (p.ROBSize + 63) / 64
	c := &Core{
		p:    p,
		hier: cache.NewHierarchy(cache.DefaultHierarchyParams()),
		gsh:  bpred.NewGshare(p.GshareBits),
		btb:  bpred.NewBTB(p.BTBEntries, p.BTBWays),
		ras:  bpred.NewRAS(p.RASEntries),

		regVal:    make([]uint64, p.PhysRegs),
		regReady:  make([]bool, p.PhysRegs),
		freeList:  make([]int, p.PhysRegs),
		waiters:   make([]uint64, p.PhysRegs*waitWords),
		waitWords: waitWords,
		rob:       make([]Entry, p.ROBSize),
		rdyq:      newSlotQueue(p.IQSize),
		lq:        newSlotQueue(p.LQSize),
		sq:        newSlotQueue(p.SQSize),
		execq:     newSlotQueue(p.ROBSize),
		brq:       newSlotQueue(p.ROBSize),
		bcq:       newSlotQueue(p.ROBSize),
		doneq:     newSlotQueue(p.ROBSize),
		fetchQ:    make([]fetchSlot, p.FetchQSize),
	}
	for i := range c.rob {
		e := &c.rob[i]
		e.Slot = int32(i)
		// Pre-size the per-entry backing stores so the hot path never
		// allocates: a load can bypass at most SQSize stores, and the RAS
		// snapshot array matches the stack's entry count.
		e.bypassed = newSlotQueue(p.SQSize)
		c.ras.SnapshotInto(&e.RASBefore)
		e.reset()
	}
	for i := range c.fetchQ {
		c.ras.SnapshotInto(&c.fetchQ[i].rasBefore)
	}
	if p.Sanitize {
		c.sanWriterMark = make([]uint64, p.PhysRegs)
		c.sanWriterSeq = make([]uint64, p.PhysRegs)
		c.sanWriterBcast = make([]bool, p.PhysRegs)
	}
	c.Reset(prog, m, pol)
	return c
}

// Reset puts the core back into exactly the state New builds for prog, m
// and pol, keeping every backing array: ROB ring, scheduler queues,
// physical registers, fetch queue, RAS snapshots, predictors and cache
// hierarchy. Params are kept. The Cancel and Trace* hooks are cleared, as
// are the statistics and the sanitizer's count, log and writer marks.
// The caches and the BTB empty in O(1), by generation bump; beyond them it
// touches the last run's in-flight entries, the fetch queue, the register
// file with its waiter sets and the gshare table, not the ~1.2 MB a fresh
// core allocates.
func (c *Core) Reset(prog *isa.Program, m *mem.Memory, pol core.Policy) {
	// In-flight entries go back to their reset state; every other ring
	// slot already is in it (retire and squash reset the entries they
	// free). Fetch-queue slots are zeroed whole, keeping their snapshot
	// arrays.
	for i := 0; i < c.robLen; i++ {
		c.robAt(i).reset()
	}
	for i := range c.fetchQ {
		c.fetchQ[i] = fetchSlot{rasBefore: c.fetchQ[i].rasBefore}
	}
	c.hier.Reset()
	c.gsh.Reset()
	c.btb.Reset()
	c.ras.Reset()
	clear(c.regVal)
	clear(c.regReady)
	clear(c.waiters)
	// Stale writer marks would match the new run's cycle numbers, which
	// restart from zero.
	clear(c.sanWriterMark)
	clear(c.sanWriterSeq)
	clear(c.sanWriterBcast)

	*c = Core{
		p:      c.p,
		policy: pol,
		prog:   prog,
		mem:    m,
		hier:   c.hier,
		gsh:    c.gsh,
		btb:    c.btb,
		ras:    c.ras,

		regVal:        c.regVal,
		regReady:      c.regReady,
		freeList:      c.freeList,
		waiters:       c.waiters,
		waitWords:     c.waitWords,
		rob:           c.rob,
		rdyq:          c.rdyq.emptied(),
		lq:            c.lq.emptied(),
		sq:            c.sq.emptied(),
		execq:         c.execq.emptied(),
		brq:           c.brq.emptied(),
		bcq:           c.bcq.emptied(),
		doneq:         c.doneq.emptied(),
		guardSeq:      noGuard,
		fetchQ:        c.fetchQ,
		fetchPC:       prog.Entry,
		lastFetchLine: ^uint64(0),
		userMode:      true,
		nextSeq:       1,

		sanWriterMark:  c.sanWriterMark,
		sanWriterSeq:   c.sanWriterSeq,
		sanWriterBcast: c.sanWriterBcast,
	}
	// Map arch registers to the first NumGPR physical registers; the rest
	// form the free list.
	for i := 0; i < isa.NumGPR; i++ {
		c.rat[i] = i
		c.regReady[i] = true
	}
	for i := isa.NumGPR; i < c.p.PhysRegs; i++ {
		c.freeList[c.freeN] = i
		c.freeN++
	}
}

// NewFromProgram builds a core with a fresh memory initialized from the
// program's data segments.
func NewFromProgram(prog *isa.Program, pol core.Policy, p Params) *Core {
	m := mem.New()
	emu.Load(m, prog)
	return New(prog, m, pol, p)
}

// ringIndex maps position i (0 <= i < n) past head (0 <= head < n) onto
// a ring of n slots. A conditional subtract, not a modulo: ROBSize is not a
// power of two, and a divide on every ring access is measurable.
func ringIndex(head, i, n int) int {
	j := head + i
	if j >= n {
		j -= n
	}
	return j
}

// robAt returns the i-th oldest in-flight entry (0 = head).
func (c *Core) robAt(i int) *Entry {
	return &c.rob[ringIndex(c.robHead, i, len(c.rob))]
}

// entryAt returns the entry in the given ROB ring slot.
func (c *Core) entryAt(slot int32) *Entry {
	return &c.rob[slot]
}

// robPos returns the age position (0 = head) of the in-flight entry in the
// given ring slot: robAt's inverse.
func (c *Core) robPos(slot int32) int {
	i := int(slot) - c.robHead
	if i < 0 {
		i += len(c.rob)
	}
	return i
}

// robAlloc appends a new entry at the tail and returns it.
func (c *Core) robAlloc() *Entry {
	e := c.robAt(c.robLen)
	c.robLen++
	return e
}

// fqAt returns the i-th oldest fetch-queue slot (0 = head).
func (c *Core) fqAt(i int) *fetchSlot {
	return &c.fetchQ[ringIndex(c.fqHead, i, len(c.fetchQ))]
}

// fqPush appends a fresh slot at the fetch queue's tail, preserving the
// slot's RAS-snapshot backing array across reuse.
func (c *Core) fqPush() *fetchSlot {
	s := c.fqAt(c.fqLen)
	c.fqLen++
	ras := s.rasBefore
	*s = fetchSlot{rasBefore: ras}
	return s
}

// fqPop drops the fetch queue's head slot.
func (c *Core) fqPop() {
	c.fqHead = ringIndex(c.fqHead, 1, len(c.fetchQ))
	c.fqLen--
}

// Cycles returns the number of cycles simulated so far.
func (c *Core) Cycles() uint64 { return c.cycle }

// Retired returns the number of committed instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Halted reports whether a HALT has committed.
func (c *Core) Halted() bool { return c.halted }

// Stats returns the statistics accumulated since the last reset.
func (c *Core) Stats() *Stats { return &c.stats }

// Hierarchy exposes the cache hierarchy (attack PoCs and tests inspect it).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// BTB exposes the branch target buffer.
func (c *Core) BTB() *bpred.BTB { return c.btb }

// Policy returns the propagation policy the core runs under.
func (c *Core) Policy() core.Policy { return c.policy }

// ResetStats zeroes the statistics counters (end of a warm-up window)
// without disturbing micro-architectural state.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.hier.ResetStats()
}

// Reg returns the committed architectural value of r.
//
// Between commits the rename table also covers in-flight instructions, so
// Reg is intended to be read when the pipeline is drained (halted), as the
// differential tests do.
func (c *Core) Reg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return c.regVal[c.rat[r]]
}

// Regs returns the architectural register file (pipeline should be drained).
func (c *Core) Regs() [isa.NumGPR]uint64 {
	var out [isa.NumGPR]uint64
	for i := range out {
		out[i] = c.Reg(isa.Reg(i))
	}
	return out
}

// MSR returns a model-specific register's committed value.
func (c *Core) MSR(n uint16) uint64 { return c.msr[n] }

// SetMSR plants a value in a model-specific register before the program
// runs; attack PoCs use it to install the privileged secret (the LazyFP /
// Meltdown-v3a scenario, where another context left a secret behind).
func (c *Core) SetMSR(n uint16, v uint64) { c.msr[n] = v }

// Memory returns the memory image the core operates on.
func (c *Core) Memory() *mem.Memory { return c.mem }

// ErrCancelled is returned by Run/RunInsts when the core's Cancel channel
// closes mid-simulation. Callers holding the context that fed the channel
// translate it back into ctx.Err().
var ErrCancelled = errors.New("ooo: simulation cancelled")

// cancelStride is how many cycles may elapse between Cancel-channel polls.
const cancelStride = 1 << 12

// cancelled polls the Cancel channel at most once per cancelStride elapsed
// cycles. The poll triggers on distance since the last poll — not on a cycle
// mask — so event-horizon jumps that skip over every stride-aligned cycle
// still cannot starve cancellation.
func (c *Core) cancelled() bool {
	if c.Cancel == nil || c.cycle-c.lastCancelPoll < cancelStride {
		return false
	}
	c.lastCancelPoll = c.cycle
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// Run simulates until HALT commits or maxCycles elapse, whichever is first.
// Exceeding maxCycles or deadlocking returns an error.
//
// Run is event-driven: after a cycle in which no stage changed any state
// and the sanitizer, if on, found nothing (deadStep), it jumps c.cycle to
// the next event horizon (earliest pending completion, replay, deferred
// broadcast, validation end, fetch-queue readiness, or fetch-stall expiry)
// instead of stepping through the dead cycles one by one. Statistics,
// timing, sanitizer findings, and outputs are byte-identical to per-cycle
// stepping; only wall-clock time changes.
//
//ndavet:hotpath
func (c *Core) Run(maxCycles uint64) error {
	for !c.halted {
		if c.cycle >= maxCycles {
			return fmt.Errorf("ooo: exceeded %d cycles without halting (pc=%#x, rob=%d)", maxCycles, c.fetchPC, c.robLen)
		}
		if c.cancelled() {
			return ErrCancelled
		}
		san := c.sanCount
		if err := c.Step(); err != nil {
			return err
		}
		if c.deadStep(san) {
			c.skipAhead(maxCycles)
		}
	}
	return nil
}

// RunInsts simulates until at least n more instructions commit, HALT
// commits, or maxCycles elapse. Used by the sampling harness for fixed
// instruction windows. Like Run, it jumps over provably dead cycles.
//
//ndavet:hotpath
func (c *Core) RunInsts(n, maxCycles uint64) error {
	target := c.retired + n
	for !c.halted && c.retired < target {
		if c.cycle >= maxCycles {
			return fmt.Errorf("ooo: exceeded %d cycles with %d/%d instructions committed", maxCycles, c.retired, target)
		}
		if c.cancelled() {
			return ErrCancelled
		}
		san := c.sanCount
		if err := c.Step(); err != nil {
			return err
		}
		if c.deadStep(san) {
			c.skipAhead(maxCycles)
		}
	}
	return nil
}

// deadStep reports whether the Step just taken lets the run loop jump: no
// stage changed any state, the core has not halted, and the sanitizer's
// count still reads san, its value before the Step. A dead Step issues and
// broadcasts nothing, so the skipped cycles repeat its end state: checks
// 2–4 (which fire only on this cycle's broadcasts and issues) cannot fire
// in them, and check 1 would repeat this cycle's result. A clean result
// repeats as clean; a cycle that logged a finding is instead followed by
// per-cycle steps, so violation counts and the log stay exactly those of
// per-cycle stepping.
func (c *Core) deadStep(san uint64) bool {
	return !c.progress && !c.halted && c.sanCount == san
}

// skipAhead advances a quiescent core to just before the next cycle at
// which any stage could act. Called only after a Step that set no progress
// flag: by induction every skipped cycle would have repeated the same
// no-op stage walk and the same commit-stage stall accounting, so the
// bulk-accounted statistics are exactly what per-cycle stepping produces.
//
// The horizon is capped at the deadlock bound (so a genuinely dead core
// still reports its deadlock at the identical cycle) and at maxCycles+1 (so
// a budget overrun leaves c.cycle and the statistics exactly where the
// per-cycle loop would have stopped).
func (c *Core) skipAhead(maxCycles uint64) {
	h := c.nextEventCycle()
	if d := c.lastCommit + c.p.DeadlockCycles + 1; h > d {
		h = d
	}
	if h > maxCycles+1 && maxCycles+1 > maxCycles {
		h = maxCycles + 1
	}
	if h <= c.cycle+1 {
		return
	}
	c.skipTo(h)
}

// skipTo bulk-accounts the dead cycles c.cycle+1 .. h-1 and moves the clock
// to h-1, so the next Step simulates cycle h. The accounting mirrors
// commitStage's zero-commit path: the stall classification cannot change
// while no stage acts, and neither can the outstanding off-chip load count.
func (c *Core) skipTo(h uint64) {
	k := h - 1 - c.cycle
	switch {
	case c.robLen == 0:
		c.stats.FrontendStalls += k
	case c.robAt(0).isMem() && !c.robAt(0).Node.Completed:
		c.stats.MemStallCycles += k
	default:
		c.stats.BackendStalls += k
	}
	c.stats.Cycles += k
	if c.offChipLoads > 0 {
		c.stats.MLPSum += uint64(c.offChipLoads) * k
		c.stats.MLPCycles += k
	}
	c.cycle = h - 1
}

// nextEventCycle returns the earliest future cycle at which a stage of a
// currently quiescent core could act: an execution completing, a replay
// retrying, a deferred broadcast's delay expiring, InvisiSpec validation
// ending, the fetch queue's head reaching dispatch depth, or a fetch stall
// elapsing. Waits with no intrinsic timer (operand readiness, guard
// resolution, resource exhaustion) are all unblocked by one of these, so
// they need no terms of their own. Replays are read from rdyq alone: only
// an entry with ready operands executes and so can replay, and its
// operands stay ready until it issues. Returns c.cycle+1 if no timed event
// is pending (the deadlock bound in skipAhead still guarantees
// termination).
func (c *Core) nextEventCycle() uint64 {
	const never = ^uint64(0)
	h := never
	for _, s := range c.execq.slots() {
		h = earlierEvent(h, c.cycle, c.rob[s].CompleteAt)
	}
	for _, s := range c.rdyq.slots() {
		h = earlierEvent(h, c.cycle, c.rob[s].RetryAt)
	}
	for _, s := range c.bcq.slots() {
		if e := &c.rob[s]; e.HasSafeSince {
			h = earlierEvent(h, c.cycle, e.SafeSince+uint64(c.policy.ExtraBroadcastDelay))
		}
	}
	if c.commitValidate > c.cycle {
		h = earlierEvent(h, c.cycle, c.commitValidate)
	}
	if c.fqLen > 0 {
		h = earlierEvent(h, c.cycle, c.fqAt(0).readyAt)
	}
	if !c.fetchWait && !c.fetchDead && !c.halted && c.fetchStall > c.cycle {
		h = earlierEvent(h, c.cycle, c.fetchStall)
	}
	if h == never {
		return c.cycle + 1
	}
	return h
}

// earlierEvent folds one candidate into the event horizon: v replaces h
// when it is a strictly future cycle (relative to now) earlier than h.
// A plain function rather than a closure so the skip-ahead scan stays
// allocation-free (a capturing closure would be an alloclint finding).
func earlierEvent(h, now, v uint64) uint64 {
	if v > now && v < h {
		return v
	}
	return h
}

// DebugState renders a one-line pipeline snapshot for diagnostics.
func (c *Core) DebugState() string {
	head := "rob-empty"
	if c.robLen > 0 {
		e := c.robAt(0)
		head = fmt.Sprintf("head{seq=%d pc=%#x %v issued=%v comp=%v}", e.Seq, e.PC, e.Inst, e.Issued, e.Node.Completed)
	}
	fq := "fq-empty"
	if c.fqLen > 0 {
		s := c.fqAt(0)
		fq = fmt.Sprintf("fq[%d]{pc=%#x %v valid=%v ready@%d}", c.fqLen, s.pc, s.inst, s.valid, s.readyAt)
	}
	return fmt.Sprintf("cyc=%d rob=%d iq=%d lq=%d sq=%d fetchPC=%#x wait=%v dead=%v stall>%d validate>%d %s %s",
		c.cycle, c.robLen, c.iqLen, c.lq.n, c.sq.n, c.fetchPC, c.fetchWait, c.fetchDead, c.fetchStall, c.commitValidate, head, fq)
}

// DebugROB lists the in-flight entries (diagnostics).
func (c *Core) DebugROB() string {
	s := ""
	for i := 0; i < c.robLen; i++ {
		e := c.robAt(i)
		flag := " "
		if e.Node.Completed {
			flag = "C"
		} else if e.Issued {
			flag = "I"
		}
		s += fmt.Sprintf("  [%3d] seq=%d pc=%#x %s %v\n", i, e.Seq, e.PC, flag, e.Inst)
	}
	return s
}

// NewFromState builds a core resuming from an architectural snapshot:
// registers, MSRs, and the program counter are installed and execution
// starts at pc on the given memory image. Retired counts from zero, so
// instruction-budget runs measure relative progress. Used by the
// checkpoint-based SMARTS sampling path.
func NewFromState(prog *isa.Program, m *mem.Memory, regs [isa.NumGPR]uint64, msrs [isa.NumMSR]uint64, pc uint64, pol core.Policy, p Params) *Core {
	c := New(prog, m, pol, p)
	for i := 1; i < isa.NumGPR; i++ {
		c.regVal[c.rat[i]] = regs[i]
	}
	c.msr = msrs
	c.fetchPC = pc
	return c
}
