// Package core implements the paper's contribution: NDA (Non-speculative
// Data Access) propagation policies for an out-of-order processor, plus the
// two InvisiSpec visibility variants used as comparators.
//
// NDA's mechanism lives at a single choke point of the OoO life-cycle
// (paper Fig. 2): an instruction that has completed execution writes its
// result to its destination physical register, but the *tag broadcast* that
// marks the register ready and wakes dependent instructions is deferred
// until the instruction is "safe". Because dependents cannot issue before
// the broadcast, potentially wrong-path values never propagate, which
// breaks the access→transmit dependence chains that every known speculative
// execution attack requires.
//
// A Policy defines (a) which instructions are considered unsafe at dispatch
// and (b) the event that makes them safe:
//
//   - Steering policies (Permissive/Strict, §5.1–5.2) treat instructions
//     dispatched after an unresolved branch as unsafe until every older
//     branch has resolved. Permissive restricts only load-like
//     instructions; Strict restricts everything.
//   - Bypass Restriction (BR, §5.2) additionally marks a load unsafe while
//     any older store it bypassed still has an unresolved address.
//   - Load Restriction (§5.3) treats every load-like instruction as unsafe
//     until it is the eldest unretired instruction, defeating chosen-code
//     attacks (Meltdown/Foreshadow/LazyFP/MDS) even on cores that forward
//     faulting data.
//   - Full Protection (§5.4) composes Strict+BR with Load Restriction.
//
// The package is written against a minimal per-instruction Node embedded in
// the simulator's ROB entries, so the policy logic is independent of the
// pipeline implementation and can be unit-tested in isolation.
package core

import (
	"fmt"

	"nda/internal/isa"
)

// Visibility selects how speculative loads interact with the cache
// hierarchy. It models InvisiSpec-style defenses, which leave NDA's
// propagation path untouched and instead hide the cache side effects of
// speculative loads.
type Visibility uint8

const (
	// VisibleAlways is conventional behaviour: loads install lines
	// immediately, speculative or not.
	VisibleAlways Visibility = iota
	// InvisibleUntilResolved hides a load's fill while any older branch is
	// unresolved (InvisiSpec-Spectre).
	InvisibleUntilResolved
	// InvisibleUntilRetire hides a load's fill until the load retires
	// (InvisiSpec-Future).
	InvisibleUntilRetire
)

// Policy is one point in the NDA design space (a row of Table 2).
// The zero value is the insecure baseline OoO design.
type Policy struct {
	Name string

	// GuardBranches makes unresolved conditional branches and indirect
	// jumps guards: instructions dispatched after a guard carry
	// Node.UnderGuard until every older guard resolves.
	GuardBranches bool

	// PropagationRestricted defers tag broadcast of UnderGuard
	// instructions (loads only, or all instructions when RestrictAll).
	PropagationRestricted bool

	// RestrictAll extends the restriction from load-like instructions to
	// every instruction class (Strict propagation, §5.1). Meaningful only
	// with PropagationRestricted.
	RestrictAll bool

	// BypassRestriction marks loads that bypassed stores with unresolved
	// addresses unsafe until those addresses resolve (§5.2).
	BypassRestriction bool

	// LoadRestriction defers a load-like instruction's broadcast until it
	// is the eldest unretired instruction (§5.3).
	LoadRestriction bool

	// LoadVisibility models InvisiSpec; orthogonal to the NDA fields.
	LoadVisibility Visibility

	// ExtraBroadcastDelay adds d cycles between an instruction becoming
	// safe *after* completion and its tag broadcast, modelling NDA wake-up
	// logic that misses the critical path (Fig. 9e sensitivity study).
	// Instructions that are already safe when they complete broadcast
	// without this delay, as in the paper.
	ExtraBroadcastDelay int
}

// The ten evaluated configurations. Baseline is insecure OoO; the six NDA
// rows correspond to Table 2 rows 1–6; the InvisiSpec pair are rows 7–8.
func Baseline() Policy { return Policy{Name: "OoO"} }

// Permissive is Table 2 row 1: loads after an unresolved branch do not wake
// dependents until all older branches resolve. Protects secrets in memory
// and special registers against control-steering attacks.
func Permissive() Policy {
	return Policy{Name: "Permissive", GuardBranches: true, PropagationRestricted: true}
}

// PermissiveBR is Table 2 row 2: Permissive plus Bypass Restriction,
// additionally defeating Speculative Store Bypass (Spectre v4).
func PermissiveBR() Policy {
	p := Permissive()
	p.Name = "Permissive+BR"
	p.BypassRestriction = true
	return p
}

// Strict is Table 2 row 3: every instruction after an unresolved branch is
// restricted, additionally hindering exfiltration of GPR-resident secrets.
func Strict() Policy {
	return Policy{Name: "Strict", GuardBranches: true, PropagationRestricted: true, RestrictAll: true}
}

// StrictBR is Table 2 row 4: Strict plus Bypass Restriction.
func StrictBR() Policy {
	p := Strict()
	p.Name = "Strict+BR"
	p.BypassRestriction = true
	return p
}

// LoadRestrict is Table 2 row 5: loads wake dependents only at retirement,
// defeating all chosen-code attacks (Meltdown/Foreshadow/LazyFP/MDS).
func LoadRestrict() Policy {
	return Policy{Name: "RestrictedLoads", LoadRestriction: true}
}

// FullProtection is Table 2 row 6: StrictBR composed with LoadRestrict; the
// most defensive design point.
func FullProtection() Policy {
	p := StrictBR()
	p.Name = "FullProtection"
	p.LoadRestriction = true
	return p
}

// InvisiSpecSpectre models InvisiSpec's Spectre threat model: speculative
// loads are invisible to the cache until all older branches resolve.
func InvisiSpecSpectre() Policy {
	return Policy{Name: "InvisiSpec-Spectre", GuardBranches: true, LoadVisibility: InvisibleUntilResolved}
}

// InvisiSpecFuture models InvisiSpec's futuristic threat model: speculative
// loads are invisible to the cache until they retire.
func InvisiSpecFuture() Policy {
	return Policy{Name: "InvisiSpec-Future", GuardBranches: true, LoadVisibility: InvisibleUntilRetire}
}

// All returns the ten evaluated configurations in Fig. 7 order (the
// in-order core is driven separately by the harness).
func All() []Policy {
	return []Policy{
		Baseline(),
		Permissive(), PermissiveBR(),
		Strict(), StrictBR(),
		LoadRestrict(), FullProtection(),
		InvisiSpecSpectre(), InvisiSpecFuture(),
	}
}

// ByName returns the policy with the given Name.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q", name)
}

// Secure reports whether the policy restricts speculation at all.
func (p Policy) Secure() bool {
	return p.PropagationRestricted || p.BypassRestriction || p.LoadRestriction ||
		p.LoadVisibility != VisibleAlways
}

// Node is the per-instruction safety state NDA adds to each ROB entry: the
// paper's unsafe/exec/bcast bits plus bypass-guard bookkeeping. The pipeline
// owns the entries; this package owns their interpretation.
type Node struct {
	// Class is the instruction's NDA class, fixed at dispatch.
	Class isa.Class

	// GuardResolved is meaningful for ClassBranch nodes: it is set when the
	// branch's direction and target are known (execution complete).
	GuardResolved bool

	// UnderGuard is the paper's "unsafe" bit for steering policies: the
	// instruction follows a still-unresolved guard. Policy.RecomputeGuards
	// defines it; the OoO pipeline keeps it equal to that walk
	// incrementally.
	UnderGuard bool

	// BypassGuards counts older stores with unresolved addresses that this
	// load bypassed; >0 blocks broadcast under Bypass Restriction.
	BypassGuards int

	// Completed is the paper's "exec" bit: execution finished and the
	// result has been written to the destination physical register.
	Completed bool

	// Broadcast is the paper's "bcast" bit: the destination tag has been
	// broadcast and dependents woken.
	Broadcast bool
}

// RecomputeGuards performs the resolve-walk of §5.1 over the ROB in age
// order (eldest first): each node's UnderGuard bit is set iff some older
// unresolved guard exists. Clearing happens implicitly when the eldest
// unresolved guard resolves — exactly "mark instructions safe until the
// next eldest unresolved branch".
//
// The walk also serves policies that only *track* speculation depth without
// restricting propagation (InvisiSpec), which use UnderGuard to decide when
// a speculative load's fill may become visible.
//
// The OoO pipeline does not call it every cycle. It clears only the bits
// between the old and the new eldest unresolved branch, and its tests
// compare the result with this walk after every cycle.
func (p Policy) RecomputeGuards(nodes []*Node) {
	if !p.GuardBranches {
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

// steeringUnsafe reports whether the steering restriction currently blocks
// the node's broadcast.
func (p Policy) steeringUnsafe(n *Node) bool {
	if !p.PropagationRestricted || !n.UnderGuard {
		return false
	}
	return p.RestrictAll || n.Class == isa.ClassLoad
}

// Unsafe reports whether any NDA restriction currently blocks the node's
// broadcast. atHead must be true iff the node's instruction is the eldest
// unretired instruction.
func (p Policy) Unsafe(n *Node, atHead bool) bool {
	if p.steeringUnsafe(n) {
		return true
	}
	if p.BypassRestriction && n.BypassGuards > 0 {
		return true
	}
	if p.LoadRestriction && n.Class == isa.ClassLoad && !atHead {
		return true
	}
	return false
}

// MayBroadcast reports whether the node is eligible to broadcast its tag
// this cycle: it has completed, has not already broadcast, and no NDA
// restriction applies.
func (p Policy) MayBroadcast(n *Node, atHead bool) bool {
	return n.Completed && !n.Broadcast && !p.Unsafe(n, atHead)
}
