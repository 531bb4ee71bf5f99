package ooo

import (
	"math/bits"

	"nda/internal/core"
	"nda/internal/isa"
)

// Shadow rule tables and secret-read tracking: two per-run inputs that let
// a caller prove a run it has not simulated identical to one it has.
//
// A core's trajectory depends on its policy only through the decisions the
// pipeline asks the running core.Rules for: broadcast eligibility at both
// arbitration loops, the eldest-commit wait of load restriction, and the
// fill visibility of every cache access (exposure and validation act only
// on the loads that decision made invisible). The one input of those
// decisions that only some rules keep, Node.UnderGuard, is kept by the
// resolve-walk, which runs while the running rules or any armed shadow
// read it. Each shadow is asked at each decision the running rules make,
// on the same state; a shadow that agreed every time would have made every
// decision the same way, so its run is this run, cycle for cycle. The
// decisions the running rules never make (candidates past the last
// broadcast port, say) are never made in the shadow's run either.
//
// A run that reads no byte of a watched span and never reads the watched
// MSR computes nothing from their contents, so a run differing from it
// only in those contents is this run too.

// MaxShadows is the number of shadow rule tables a core can carry: one
// bit each of the diverged mask.
const MaxShadows = 64

// Span is the byte range [Lo, Hi) of data memory.
type Span struct{ Lo, Hi uint64 }

// SetShadows arms shadows next to the running policy for the run about to
// start, before its first Step; Reset disarms them. The core asks each
// shadow at every decision its own rules make, and Diverged reports the
// shadows that answered differently at least once. A shadow shares the
// running policy's ExtraBroadcastDelay: a policy with another delay has no
// shadow. The core keeps shadows, which the caller must not change during
// the run. It panics on more than 64.
func (c *Core) SetShadows(shadows []core.Rules) {
	if len(shadows) > MaxShadows {
		panic("ooo: more than 64 shadow rule tables")
	}
	c.shadows = shadows
	c.shadowLive = ^uint64(0) >> (64 - len(shadows)) // 0 for no shadows
	c.walk = c.rules.Walk
	for _, r := range shadows {
		c.walk = c.walk || r.Walk
	}
}

// Diverged returns the shadows armed by SetShadows that decided some point
// of the run differently from the running policy: bit i stands for
// shadows[i]. A shadow whose bit is clear would have run exactly this run.
func (c *Core) Diverged() uint64 {
	return ^uint64(0) >> (64 - len(c.shadows)) &^ c.shadowLive
}

// WatchSecrets arms secret-read tracking for the run about to start;
// Reset disarms it. ReadSecret then reports whether any executed load,
// wrong-path loads included, read a byte of spans, or any RDMSR read msr,
// faulting ones included. The core keeps spans, which the caller must not
// change during the run.
func (c *Core) WatchSecrets(spans []Span, msr uint16) {
	c.secretSpans = spans
	c.secretMSR = msr
	c.watchMSR = true
}

// ReadSecret reports whether the run read a watched span or MSR.
func (c *Core) ReadSecret() bool { return c.readSecret }

// noteLoad records a load of size bytes at addr against the watched
// spans.
func (c *Core) noteLoad(addr uint64, size int) {
	for _, s := range c.secretSpans {
		if overlaps(s.Lo, int(s.Hi-s.Lo), addr, size) {
			c.readSecret = true
		}
	}
}

// readMSR returns MSR n's value for an RDMSR, noting a read of the
// watched MSR.
func (c *Core) readMSR(n uint16) uint64 {
	if c.watchMSR && n == c.secretMSR {
		c.readSecret = true
	}
	return c.msr[n]
}

// shadowBroadcast asks every live shadow whether n may broadcast, where
// the running rules answered may.
func (c *Core) shadowBroadcast(n *core.Node, atHead, may bool) {
	for live := c.shadowLive; live != 0; live &= live - 1 {
		i := bits.TrailingZeros64(live)
		if c.shadows[i].MayBroadcast(n, atHead) != may {
			c.shadowLive &^= 1 << i
		}
	}
}

// shadowEldest asks every live shadow whether class c waits for the
// eldest-commit step, where the running rules answered wait.
func (c *Core) shadowEldest(class isa.Class, wait bool) {
	for live := c.shadowLive; live != 0; live &= live - 1 {
		i := bits.TrailingZeros64(live)
		if c.shadows[i].WaitsForEldest(class) != wait {
			c.shadowLive &^= 1 << i
		}
	}
}

// shadowFill asks every live shadow whether e's cache access is
// invisible, where the running rules answered invisible. A shadow with
// another fill mode diverges at any invisible access too: the two modes
// expose it at different points.
func (c *Core) shadowFill(e *Entry, invisible bool) {
	for live := c.shadowLive; live != 0; live &= live - 1 {
		i := bits.TrailingZeros64(live)
		f := c.shadows[i].Fill
		if c.fillInvisible(f, e) != invisible || invisible && f != c.rules.Fill {
			c.shadowLive &^= 1 << i
		}
	}
}

// fillInvisible reports whether fill mode f hides e's cache access.
func (c *Core) fillInvisible(f core.FillMode, e *Entry) bool {
	switch f {
	case core.FillAtResolve:
		// InvisiSpec-Spectre: a load is speculative iff some OLDER
		// branch is unresolved; younger branches are irrelevant.
		return c.olderUnresolvedBranch(e)
	case core.FillAtRetire:
		return true
	}
	return false
}
