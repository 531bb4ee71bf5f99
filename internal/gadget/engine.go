package gadget

import (
	"fmt"

	"nda/internal/core"
)

// The semantic verdict engine.
//
// Verdicts are no longer hand-written per policy: each core.Policy exposes
// its propagation-gating rules as a []core.Gate (which dataflow edge class
// it cuts, on which chains, until which release event), and the engine
// interprets that spec against the gadget's dependence chain. A gadget is
// blocked iff some gate (a) has its edge present on the chain, (b) covers
// the chain's scope, and (c) releases no earlier than the event that
// squashes this chain kind — i.e. the gated edge provably cannot fire while
// the path is still transient.

// squashEvent is the pipeline event that kills a transient chain of the
// given kind: the mis-steered guard resolving, the faulting access reaching
// eldest (where the fault delivers instead of the data), or the bypassed
// store's address resolving (the order violation).
func squashEvent(k Kind) core.ReleaseEvent {
	switch k {
	case KindChosenCode:
		return core.ReleaseEldest
	case KindBypass:
		return core.ReleaseStoreAddrsResolve
	default: // KindSteering
		return core.ReleaseGuardsResolve
	}
}

// outlasts reports whether a gate released at `until` provably holds until
// the squash event fires. The release events form a chain-relative order:
// guard resolution and store-address resolution race each other in general,
// but each squash event is itself the matching release (a gate released
// exactly at the squash never fires transiently), and eldest/retire strictly
// follow every squash — a squashed instruction never becomes the retiring
// eldest.
func outlasts(until, squash core.ReleaseEvent) bool {
	switch until {
	case core.ReleaseRetire:
		return true
	case core.ReleaseEldest:
		// Eldest-unretired is reached only after every older guard and
		// store address resolved; all three squash events precede it.
		return true
	default:
		return until == squash
	}
}

// edgePresent reports whether the gadget's chain contains an edge of the
// gate's kind.
func edgePresent(e core.EdgeKind, g *Gadget) bool {
	switch e {
	case core.EdgeLoadUse:
		return !g.LoadFree
	case core.EdgeAnyUse:
		return !g.DirectUse
	case core.EdgeFill:
		return g.Channel == ChannelDCache
	}
	return false
}

// scopeCovers reports whether the gate's scope includes this chain. The
// chain kind encodes the speculation primitive: steering chains run under an
// unresolved guard, bypass chains are sourced at a store-bypassing load, and
// chosen-code chains run under neither (the faulting access is
// architecturally reached).
func scopeCovers(s core.GateScope, g *Gadget) bool {
	switch s {
	case core.ScopeUnderGuard:
		return g.Kind == KindSteering
	case core.ScopeBypassingLoad:
		return g.Kind == KindBypass
	case core.ScopeAlways:
		return true
	}
	return false
}

// verdictFromGates interprets a policy's gate spec over one gadget. Tests
// pass edited gate lists to prove the engine consumes the spec: stripping a
// policy's gates must flip its verdicts.
func verdictFromGates(gates []core.Gate, g *Gadget) Verdict {
	if len(gates) == 0 {
		return Verdict{Reason: "baseline OoO: completed results broadcast immediately, so the whole chain runs transiently"}
	}
	squash := squashEvent(g.Kind)
	for _, gate := range gates {
		if edgePresent(gate.Edge, g) && scopeCovers(gate.Scope, g) && outlasts(gate.Until, squash) {
			return Verdict{Blocked: true, Reason: blockReason(gate, g)}
		}
	}
	return Verdict{Reason: openReason(g)}
}

// blockReason renders why the blocking gate cuts this chain. The texts for
// the evaluated policies' gates match the analyzer's historical wording so
// censuses stay readable; a gate outside that set gets a generic rendering.
func blockReason(gate core.Gate, g *Gadget) string {
	switch g.Kind {
	case KindSteering:
		switch {
		case gate.Edge == core.EdgeLoadUse && gate.Until == core.ReleaseGuardsResolve:
			return "a load in the chain executes under an unresolved guard; its tag broadcast is deferred until the guard resolves, and a mis-steered guard squashes first"
		case gate.Edge == core.EdgeAnyUse:
			return "strict propagation defers every wrong-path producer, so the register-resident secret cannot be pre-processed for transmission before the squash"
		case gate.Edge == core.EdgeLoadUse && gate.Until == core.ReleaseEldest:
			return "load restriction defers the access load's broadcast until it is eldest unretired; the older mis-steered guard resolves and squashes first"
		case gate.Edge == core.EdgeFill && gate.Until == core.ReleaseGuardsResolve:
			return "speculative fills are invisible while the guard is unresolved, so the wrong-path access leaves no d-cache signal"
		case gate.Edge == core.EdgeFill && gate.Until == core.ReleaseRetire:
			return "speculative fills are invisible until retirement, and the wrong-path access never retires, so it leaves no d-cache signal"
		}
	case KindChosenCode:
		switch {
		case gate.Edge == core.EdgeLoadUse && gate.Until == core.ReleaseEldest:
			return "load restriction: the illegal access broadcasts only when eldest unretired, where its fault squashes the dependents instead"
		case gate.Edge == core.EdgeFill && gate.Until == core.ReleaseRetire:
			return "fills are invisible until retirement and the faulting access never retires, so the transmitter leaves no d-cache signal"
		}
	case KindBypass:
		switch {
		case gate.Edge == core.EdgeLoadUse && gate.Until == core.ReleaseStoreAddrsResolve:
			return "bypass restriction: the load bypassed a store with an unresolved address and defers broadcast until that address resolves, where the order violation squashes it"
		case gate.Edge == core.EdgeLoadUse && gate.Until == core.ReleaseEldest:
			return "load restriction: the bypassing load broadcasts only when eldest unretired, by which point the older store's address resolved and squashed it"
		case gate.Edge == core.EdgeFill && gate.Until == core.ReleaseRetire:
			return "fills are invisible until retirement; the order-violation squash reaches the bypassing load first"
		}
	}
	return fmt.Sprintf("gated: %s edges (%s) defer until %s, which the chain's squash event (%s) cannot outrun",
		gate.Edge, gate.Scope, gate.Until, squashEvent(g.Kind))
}

// openReason explains why no gate cuts the chain, in terms of the edge the
// policy would have needed to gate.
func openReason(g *Gadget) string {
	switch g.Kind {
	case KindSteering:
		switch {
		case g.LoadFree && g.DirectUse:
			return "the transmitter reads the register-resident secret directly; there is no deferred producer between access and transmit"
		case g.LoadFree:
			return "the chain is load-free: only ALU producers process the register-resident secret, and this policy does not restrict them under a guard"
		case g.Channel == ChannelBTB:
			return "the BTB insertion happens at execute and is not hidden or deferred by this policy"
		default:
			return "the wrong-path load's result broadcasts before the guard resolves, waking the transmitter inside the transient window"
		}
	case KindChosenCode:
		return "no guard shadows the illegal access, so steering restrictions never engage and the faulting data broadcasts before the fault commits"
	case KindBypass:
		return "no branch guard shadows the bypass, so steering restrictions never engage and the stale value broadcasts before the store's address resolves"
	}
	return "unknown gadget kind"
}

// policies is core.All built once: the analyzer reads every policy for
// every gadget it finds, and each core.All call allocates the gate lists.
var policies = core.All()

// fillVerdicts computes the per-policy verdict map for every configuration
// in core.All by interpreting each policy's gate spec.
func fillVerdicts(g *Gadget) {
	g.Verdicts = make(map[string]Verdict, 9)
	for _, pol := range policies {
		g.Verdicts[pol.Name] = verdictFromGates(pol.Gates, g)
	}
}
