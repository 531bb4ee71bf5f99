package ooo

import (
	"nda/internal/core"
	"nda/internal/isa"
)

// noPReg marks an absent physical register operand.
const noPReg = -1

// Entry is one reorder-buffer entry: a dispatched micro-op and all of its
// in-flight state. Entries live in a fixed ring; the schedulers and the
// per-stage side lists refer to them by ring slot (Entry.Slot), which is
// stable for an entry's whole lifetime, so every queue is a fixed-capacity
// slotQueue with no per-dispatch allocation. An Entry holds no pointers:
// its RAS checkpoint and a load's bypassed-store list live in core-owned
// arrays indexed by Slot (Core.robRAS, Core.bypassed), so clearing an
// entry is a plain memory clear.
type Entry struct {
	Seq  uint64 // global age; assigned at fetch, monotonically increasing
	PC   uint64
	Inst isa.Inst

	// Slot is the entry's fixed position in the ROB ring backing array;
	// assigned once at core construction and preserved across reset.
	Slot int32

	// Renaming.
	DestP int // destination physical register, or noPReg
	PrevP int // previous mapping of the destination arch register
	Src1P int // physical sources, or noPReg
	Src2P int

	// Scheduling state. An entry waits in the issue queue from dispatch
	// until it issues; waiting counts its distinct source registers (a
	// store's address base only) whose tags have not broadcast yet, and it
	// joins the core's ready list (rdyq) when that count reaches zero.
	waiting    int8
	Issued     bool
	RetryAt    uint64 // earliest re-issue cycle after a forwarding replay
	CompleteAt uint64 // cycle execution finishes; valid when Issued
	Result     uint64

	// Branch state. Predictions and checkpoints are recorded at fetch.
	Predicted  bool // fetch made a target/direction prediction
	PredTaken  bool
	PredTarget uint64
	GshCkpt    uint64 // gshare history before this branch's own update
	HasGshCkpt bool
	HasRASCkpt bool // Core.robRAS[Slot] holds the RAS state before this instruction's own push/pop
	Taken      bool
	Target     uint64

	// Memory state.
	Addr      uint64
	AddrKnown bool
	// ForwardSeq is the store this load forwarded from (0 = none).
	ForwardSeq uint64
	OffChip    bool // load serviced by DRAM (counts toward MLP while in flight)
	Inflight   bool // load access outstanding (between issue and completion)

	// InvisiSpec state.
	Invisible  bool // fill hidden at access time
	WasPresent bool // line was cached when the hidden access was made
	Exposed    bool // fill has been installed at the safe point

	Fault isa.FaultKind

	// NDA safety state (the paper's unsafe/exec/bcast bits).
	Node core.Node
	// SafeSince is the cycle the entry first became broadcast-eligible
	// after completion, for the ExtraBroadcastDelay sensitivity knob.
	SafeSince    uint64
	HasSafeSince bool
	// BcastCycle is the cycle the tag broadcast happened.
	BcastCycle uint64

	// Timing statistics.
	FetchedAt    uint64
	DispatchedAt uint64
	IssuedAt     uint64
}

// TraceEvent is the per-instruction life-cycle record emitted to
// Core.TraceRetire: the cycle of each pipeline milestone (paper Fig. 2's
// steps, plus fetch and retire). Fault is set only on the record of a
// faulting instruction, whose Retire is the cycle its fault is delivered.
type TraceEvent struct {
	Seq       uint64
	PC        uint64
	Inst      isa.Inst
	Fault     isa.FaultKind
	Fetch     uint64
	Dispatch  uint64
	Issue     uint64
	Complete  uint64
	Broadcast uint64 // 0 if the instruction produced no register
	Retire    uint64
}

// reset clears an entry for reuse, keeping its fixed ring slot. It zeroes
// the entry in place and then sets what is not zero: building the cleared
// value first would copy the whole entry once more.
func (e *Entry) reset() {
	slot := e.Slot
	*e = Entry{}
	e.Slot = slot
	e.DestP, e.PrevP, e.Src1P, e.Src2P = noPReg, noPReg, noPReg, noPReg
}

// isMem reports whether the entry is a data-memory operation.
func (e *Entry) isMem() bool { return e.Inst.IsLoad() || e.Inst.IsStore() }

// overlaps reports whether two byte ranges [a,a+as) and [b,b+bs) intersect.
func overlaps(a uint64, as int, b uint64, bs int) bool {
	return a < b+uint64(bs) && b < a+uint64(as)
}

// covers reports whether store range [sa,sa+ss) fully contains load range
// [la,la+ls) — the store-to-load forwarding condition.
func covers(sa uint64, ss int, la uint64, ls int) bool {
	return sa <= la && la+uint64(ls) <= sa+uint64(ss)
}

// fetchSlot is one decoded instruction travelling from fetch to dispatch.
// Like Entry it holds no pointers: its RAS checkpoint is Core.fqRAS at the
// slot's ring index.
type fetchSlot struct {
	seq     uint64
	pc      uint64
	inst    isa.Inst
	valid   bool // false: fetched bytes did not decode (wrong-path into data)
	readyAt uint64

	predicted  bool
	predTaken  bool
	predTarget uint64
	gshCkpt    uint64
	hasGshCkpt bool
	hasRASCkpt bool
}
