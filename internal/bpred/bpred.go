// Package bpred implements the branch prediction structures of the simulated
// front end: a gshare direction predictor, a set-associative branch target
// buffer (BTB), and a return address stack (RAS).
//
// Two properties matter for the NDA reproduction beyond raw accuracy:
//
//  1. The BTB is updated when branches *execute*, including on speculative
//     wrong paths, and those updates are never rolled back on a squash —
//     exactly the behaviour §3 of the paper exploits to build the BTB covert
//     channel.
//  2. The direction predictor's global history is checkpointed per branch
//     and restored on mis-speculation, so timing is deterministic and
//     wrong-path pollution of the history does not accumulate.
package bpred

// Gshare is a global-history direction predictor with a table of 2-bit
// saturating counters indexed by PC xor history.
type Gshare struct {
	pht     []uint8
	mask    uint64
	history uint64
	bits    uint
	// Stats
	Lookups    uint64
	Mispredict uint64
}

// NewGshare builds a predictor with 2^bits counters. Counters start weakly
// not-taken (01).
func NewGshare(bits uint) *Gshare {
	g := &Gshare{pht: make([]uint8, 1<<bits), mask: (1 << bits) - 1, bits: bits}
	g.Reset()
	return g
}

// Reset returns the predictor to the state NewGshare builds: every counter
// weakly not-taken, empty history, zeroed stats.
func (g *Gshare) Reset() {
	// Fill by doubling copies: memmove speed rather than a byte loop.
	g.pht[0] = 1
	for n := 1; n < len(g.pht); n *= 2 {
		copy(g.pht[n:], g.pht[:n])
	}
	g.history = 0
	g.Lookups, g.Mispredict = 0, 0
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc and
// speculatively updates the global history with that prediction. The
// returned checkpoint restores the history if the branch squashes.
func (g *Gshare) Predict(pc uint64) (taken bool, checkpoint uint64) {
	g.Lookups++
	checkpoint = g.history
	taken = g.pht[g.index(pc)] >= 2
	g.history = (g.history << 1) | b2u(taken)
	return taken, checkpoint
}

// Update trains the counter for the branch at pc with its actual direction.
// histAtPredict must be the checkpoint returned by Predict for this branch,
// so training indexes the same counter the prediction used.
func (g *Gshare) Update(pc uint64, taken bool, histAtPredict uint64) {
	saved := g.history
	g.history = histAtPredict
	idx := g.index(pc)
	g.history = saved
	c := g.pht[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	g.pht[idx] = c
}

// Restore rewinds the global history to a checkpoint taken at a squashed
// branch and re-applies the branch's actual outcome.
func (g *Gshare) Restore(checkpoint uint64, actualTaken bool) {
	g.history = (checkpoint << 1) | b2u(actualTaken)
}

// History returns the current global history register (for tests).
func (g *Gshare) History() uint64 { return g.history }

// SetHistory rewinds the global history register to a previously captured
// checkpoint; used when squashing wrong-path fetches.
func (g *Gshare) SetHistory(h uint64) { g.history = h }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a set-associative branch target buffer mapping branch PCs to
// predicted targets. Updates are applied at branch execution — including on
// wrong paths — and never reverted, which is what makes it usable as a
// covert channel (paper §3).
type BTB struct {
	entries []btbEntry // set s occupies entries[s*ways : (s+1)*ways]
	ways    int
	mask    uint64
	gen     uint64 // an entry is valid iff its gen equals this; 0 never does
	clock   uint64
	// Stats
	Lookups uint64
	Hits    uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	stamp  uint64
	gen    uint64
}

// NewBTB builds a BTB with the given total entry count and associativity.
// entries/ways must be a power of two.
func NewBTB(entries, ways int) *BTB {
	numSets := entries / ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("bpred: BTB set count must be a positive power of two")
	}
	return &BTB{entries: make([]btbEntry, numSets*ways), ways: ways, mask: uint64(numSets - 1), gen: 1}
}

// Reset returns the BTB to the state NewBTB builds, in O(1): a generation
// bump invalidates every entry at once.
func (b *BTB) Reset() {
	b.gen++
	b.clock = 0
	b.Lookups, b.Hits = 0, 0
}

// set returns pc's set and tag.
func (b *BTB) set(pc uint64) ([]btbEntry, uint64) {
	line := pc >> 2
	s := int(line&b.mask) * b.ways
	return b.entries[s : s+b.ways], line >> 1 // tag keeps the set bits' upper part plus more
}

// Lookup returns the predicted target for the branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.Lookups++
	set, tag := b.set(pc)
	b.clock++
	for i := range set {
		e := &set[i]
		if e.gen == b.gen && e.tag == tag {
			e.stamp = b.clock
			b.Hits++
			return e.target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the mapping pc -> target, evicting LRU.
func (b *BTB) Update(pc, target uint64) {
	set, tag := b.set(pc)
	b.clock++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		e := &set[i]
		valid := e.gen == b.gen
		if valid && e.tag == tag {
			e.target = target
			e.stamp = b.clock
			return
		}
		if !valid {
			victim, oldest = i, 0
		} else if e.stamp < oldest {
			victim, oldest = i, e.stamp
		}
	}
	set[victim] = btbEntry{tag: tag, target: target, stamp: b.clock, gen: b.gen}
}

// Peek returns the target for pc without touching LRU state or stats.
func (b *BTB) Peek(pc uint64) (uint64, bool) {
	set, tag := b.set(pc)
	for i := range set {
		if e := &set[i]; e.gen == b.gen && e.tag == tag {
			return e.target, true
		}
	}
	return 0, false
}

// RAS is a circular return address stack. Overflow silently wraps (oldest
// entries are overwritten); underflow returns ok=false.
type RAS struct {
	entries []uint64
	top     int // index of the most recent push
	depth   int // number of live entries, capped at len(entries)
}

// NewRAS builds a stack with the given entry count.
func NewRAS(entries int) *RAS {
	if entries <= 0 {
		panic("bpred: RAS must have at least one entry")
	}
	return &RAS{entries: make([]uint64, entries), top: -1}
}

// Reset empties the stack, returning it to the state NewRAS builds.
func (r *RAS) Reset() {
	clear(r.entries)
	r.top, r.depth = -1, 0
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.entries)
	r.entries[r.top] = addr
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts the target of a return.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	addr = r.entries[r.top]
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return addr, true
}

// Snapshot captures the full RAS state; branches checkpoint it so a squash
// can restore the stack exactly.
func (r *RAS) Snapshot() RASSnapshot {
	s := RASSnapshot{top: r.top, depth: r.depth, entries: make([]uint64, len(r.entries))}
	copy(s.entries, r.entries)
	return s
}

// SnapshotInto captures the RAS state into dst, reusing dst's backing array
// when it is already the right size. The allocation-free equivalent of
// Snapshot for callers that checkpoint on every call/return.
func (r *RAS) SnapshotInto(dst *RASSnapshot) {
	if len(dst.entries) != len(r.entries) {
		//ndavet:allow alloclint:op resizes the checkpoint buffer only when the configured RAS depth changed; steady-state snapshots reuse it (bench-gated 0 B/op)
		dst.entries = make([]uint64, len(r.entries))
	}
	dst.top, dst.depth = r.top, r.depth
	copy(dst.entries, r.entries)
}

// Snapshots returns n empty snapshots sized for this stack, all over one
// backing array, for a caller that keeps a checkpoint per slot:
// SnapshotInto and CopyInto then fill them without allocating.
func (r *RAS) Snapshots(n int) []RASSnapshot {
	d := len(r.entries)
	buf := make([]uint64, n*d)
	out := make([]RASSnapshot, n)
	for i := range out {
		out[i].entries = buf[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// CopyInto copies the snapshot into dst, reusing dst's backing array when it
// is already the right size. dst shares no storage with s afterwards.
func (s RASSnapshot) CopyInto(dst *RASSnapshot) {
	if len(dst.entries) != len(s.entries) {
		//ndavet:allow alloclint:op resizes the copy target only on first use; steady-state checkpoint copies reuse the buffer
		dst.entries = make([]uint64, len(s.entries))
	}
	dst.top, dst.depth = s.top, s.depth
	copy(dst.entries, s.entries)
}

// Restore rewinds the RAS to a snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	r.top, r.depth = s.top, s.depth
	copy(r.entries, s.entries)
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }

// RASSnapshot is an immutable copy of RAS state.
type RASSnapshot struct {
	entries []uint64
	top     int
	depth   int
}
