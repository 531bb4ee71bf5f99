package core

import (
	"fmt"

	"nda/internal/isa"
)

// The declarative propagation-gating spec.
//
// NDA's mechanism (§5) and both comparison schemes reduce to the same shape:
// a policy blocks certain dataflow edges of a speculative dependence chain
// until a resolution event fires. A Gate names one such rule — which edge
// class it cuts, over which chains it applies, and which pipeline event
// releases it. A Policy is its gate list: the static gadget analyzer
// (internal/gadget) interprets the list over static chains, and the OoO core
// enforces the Rules that Compile builds from it. A new policy is a new
// list; a gate with no rule in Compile is refused, not ignored.

// EdgeKind names a class of dataflow edge in an access→transmit chain.
type EdgeKind uint8

const (
	// EdgeLoadUse is the wakeup edge from a load-class producer (loads and
	// RDMSR) to any dependent. Chains whose every producer is a non-load
	// (plain ALU flow from an architectural register) have no such edge.
	EdgeLoadUse EdgeKind = iota
	// EdgeAnyUse is the wakeup edge from any unsafe producer to a
	// dependent. Chains where the transmitter consumes the tainted value
	// directly from an architectural register (no intermediate producer)
	// have no such edge.
	EdgeAnyUse
	// EdgeFill is the cache-visibility edge of a d-cache transmitter: the
	// line install that makes the access observable to a later timing
	// probe. Non-d-cache transmitters (BTB updates, branch-direction
	// advisories) have no fill edge.
	EdgeFill
)

// GateScope restricts which speculative chains a gate covers.
type GateScope uint8

const (
	// ScopeUnderGuard covers edges shadowed by an unresolved control or
	// address guard (a predicted branch or an unretired store address).
	ScopeUnderGuard GateScope = iota
	// ScopeBypassingLoad covers chains sourced at a load that bypassed an
	// older store with an unresolved address.
	ScopeBypassingLoad
	// ScopeAlways covers every in-flight speculative chain.
	ScopeAlways
)

// ReleaseEvent is the pipeline event that lifts a gate, allowing the gated
// edge to fire.
type ReleaseEvent uint8

const (
	// ReleaseGuardsResolve lifts when every guard shadowing the producer
	// has resolved.
	ReleaseGuardsResolve ReleaseEvent = iota
	// ReleaseStoreAddrsResolve lifts when every older store address is
	// known.
	ReleaseStoreAddrsResolve
	// ReleaseEldest lifts when the producer is the eldest unretired
	// instruction.
	ReleaseEldest
	// ReleaseRetire lifts only at retirement.
	ReleaseRetire
)

// Gate is one edge-gating rule: edges of kind Edge, on chains within Scope,
// do not fire until Until.
type Gate struct {
	Edge  EdgeKind
	Scope GateScope
	Until ReleaseEvent
}

// FillMode is when a speculative load's d-cache fill becomes visible.
type FillMode uint8

const (
	// FillVisible installs the line at execute, speculative or not.
	FillVisible FillMode = iota
	// FillAtResolve hides the fill while an older guard is unresolved
	// (InvisiSpec-Spectre).
	FillAtResolve
	// FillAtRetire hides the fill until the load retires
	// (InvisiSpec-Future).
	FillAtRetire
)

// Rules is a gate list compiled into the decision table the OoO core reads
// every cycle in place of the list: per-class block masks for the guard and
// eldest conditions, the bypass bit, the fill mode, and whether to walk.
// Compile builds it once per core, so the run loop never walks the gates.
type Rules struct {
	guarded uint8 // class bits whose broadcast waits while Node.UnderGuard
	eldest  uint8 // class bits whose broadcast waits until eldest unretired
	bypass  bool  // broadcast waits while Node.BypassGuards > 0

	// Walk reports whether a gate reads Node.UnderGuard, so the core must
	// keep the bit current with the resolve-walk of §5.1.
	Walk bool
	Fill FillMode
}

// Compile builds the Rules that enforce gates. It panics on a gate it has
// no rule for: the analyzer would report such a gate as blocking, so a core
// that ignored it would fail open.
func Compile(gates []Gate) Rules {
	var r Rules
	for _, g := range gates {
		var classes uint8 // producer classes a use edge covers
		switch g.Edge {
		case EdgeLoadUse:
			classes = 1 << isa.ClassLoad
		case EdgeAnyUse:
			classes = ^uint8(0)
		}
		switch {
		case classes != 0 && g.Scope == ScopeUnderGuard && g.Until == ReleaseGuardsResolve:
			r.guarded |= classes
		case classes != 0 && g.Scope == ScopeBypassingLoad && g.Until == ReleaseStoreAddrsResolve:
			r.bypass = true // only loads bypass stores, so the class adds nothing
		case classes != 0 && g.Scope == ScopeAlways && g.Until == ReleaseEldest:
			r.eldest |= classes
		case g == Gate{EdgeFill, ScopeUnderGuard, ReleaseGuardsResolve}:
			r.Fill = max(r.Fill, FillAtResolve)
		case g == Gate{EdgeFill, ScopeAlways, ReleaseRetire}:
			r.Fill = FillAtRetire
		default:
			panic(fmt.Sprintf("core: no rule enforces gate %+v", g))
		}
	}
	r.Walk = r.guarded != 0 || r.Fill == FillAtResolve
	return r
}

// Unsafe reports whether a gate currently blocks the node's broadcast.
// atHead must be true iff the node's instruction is the eldest unretired
// instruction.
func (r Rules) Unsafe(n *Node, atHead bool) bool {
	bit := uint8(1) << n.Class
	return n.UnderGuard && r.guarded&bit != 0 ||
		r.bypass && n.BypassGuards > 0 ||
		!atHead && r.eldest&bit != 0
}

// MayBroadcast reports whether the node is eligible to broadcast its tag
// this cycle: it has completed, has not already broadcast, and no gate
// blocks it.
func (r Rules) MayBroadcast(n *Node, atHead bool) bool {
	return n.Completed && !n.Broadcast && !r.Unsafe(n, atHead)
}

// WaitsForEldest reports whether class c broadcasts only as the eldest
// unretired instruction. Such an instruction retires the cycle after that
// wake-up: the two are sequential commit-stage actions (§5.3).
func (r Rules) WaitsForEldest(c isa.Class) bool { return r.eldest&(1<<c) != 0 }

// RecomputeGuards performs the resolve-walk of §5.1 over the ROB in age
// order (eldest first): each node's UnderGuard bit is set iff some older
// unresolved guard exists. Clearing happens implicitly when the eldest
// unresolved guard resolves — exactly "mark instructions safe until the
// next eldest unresolved branch". It does nothing unless r.Walk.
//
// The OoO pipeline does not call it every cycle. It clears only the bits
// between the old and the new eldest unresolved branch, and its tests
// compare the result with this walk after every cycle.
//
//ndavet:allow deadlint the reference walk that tests check the pipeline's incremental guard clearing against
func (r Rules) RecomputeGuards(nodes []*Node) {
	if !r.Walk {
		return
	}
	under := false
	for _, n := range nodes {
		n.UnderGuard = under
		if n.Class == isa.ClassBranch && !n.GuardResolved {
			under = true
		}
	}
}

func (k EdgeKind) String() string {
	switch k {
	case EdgeLoadUse:
		return "load→use"
	case EdgeAnyUse:
		return "any→use"
	case EdgeFill:
		return "fill"
	}
	return "edge?"
}

func (s GateScope) String() string {
	switch s {
	case ScopeUnderGuard:
		return "under-guard"
	case ScopeBypassingLoad:
		return "bypassing-load"
	case ScopeAlways:
		return "always"
	}
	return "scope?"
}

func (e ReleaseEvent) String() string {
	switch e {
	case ReleaseGuardsResolve:
		return "guards-resolve"
	case ReleaseStoreAddrsResolve:
		return "store-addrs-resolve"
	case ReleaseEldest:
		return "eldest"
	case ReleaseRetire:
		return "retire"
	}
	return "event?"
}
