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
// A Policy's gates (gates.go) define (a) which instructions are considered
// unsafe at dispatch and (b) the event that makes them safe:
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
	"sync"

	"nda/internal/isa"
)

// Policy is one point in the NDA design space (a row of Table 2).
// The zero value is the insecure baseline OoO design.
type Policy struct {
	Name string

	// Gates is the policy's whole security spec (gates.go). Its order
	// matters only for reporting: the first gate that cuts a chain names
	// the reason it is blocked.
	Gates []Gate

	// ExtraBroadcastDelay adds d cycles between an instruction becoming
	// safe *after* completion and its tag broadcast, modelling NDA wake-up
	// logic that misses the critical path (Fig. 9e sensitivity study).
	// Instructions that are already safe when they complete broadcast
	// without this delay, as in the paper.
	ExtraBroadcastDelay int
}

// The ten evaluated configurations. Baseline is insecure OoO; the six NDA
// rows correspond to Table 2 rows 1–6; the InvisiSpec pair are rows 7–8.
// Each lists its gates in the precedence of the paper's prose: propagation
// restrictions, then bypass, then load restriction, then load visibility.
func Baseline() Policy { return Policy{Name: "OoO"} }

// Permissive is Table 2 row 1: loads after an unresolved branch do not wake
// dependents until all older branches resolve. Protects secrets in memory
// and special registers against control-steering attacks.
func Permissive() Policy {
	return Policy{Name: "Permissive", Gates: []Gate{{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve}}}
}

// PermissiveBR is Table 2 row 2: Permissive plus Bypass Restriction (§5.2),
// additionally defeating Speculative Store Bypass (Spectre v4).
func PermissiveBR() Policy {
	return Policy{Name: "Permissive+BR", Gates: []Gate{
		{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
		{EdgeLoadUse, ScopeBypassingLoad, ReleaseStoreAddrsResolve},
	}}
}

// Strict is Table 2 row 3: every instruction after an unresolved branch is
// restricted, additionally hindering exfiltration of GPR-resident secrets.
func Strict() Policy {
	return Policy{Name: "Strict", Gates: []Gate{
		{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
		{EdgeAnyUse, ScopeUnderGuard, ReleaseGuardsResolve},
	}}
}

// StrictBR is Table 2 row 4: Strict plus Bypass Restriction.
func StrictBR() Policy {
	return Policy{Name: "Strict+BR", Gates: []Gate{
		{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
		{EdgeAnyUse, ScopeUnderGuard, ReleaseGuardsResolve},
		{EdgeLoadUse, ScopeBypassingLoad, ReleaseStoreAddrsResolve},
	}}
}

// LoadRestrict is Table 2 row 5: loads wake dependents only at retirement,
// defeating all chosen-code attacks (Meltdown/Foreshadow/LazyFP/MDS).
func LoadRestrict() Policy {
	return Policy{Name: "RestrictedLoads", Gates: []Gate{{EdgeLoadUse, ScopeAlways, ReleaseEldest}}}
}

// FullProtection is Table 2 row 6: StrictBR composed with LoadRestrict; the
// most defensive design point.
func FullProtection() Policy {
	return Policy{Name: "FullProtection", Gates: []Gate{
		{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
		{EdgeAnyUse, ScopeUnderGuard, ReleaseGuardsResolve},
		{EdgeLoadUse, ScopeBypassingLoad, ReleaseStoreAddrsResolve},
		{EdgeLoadUse, ScopeAlways, ReleaseEldest},
	}}
}

// InvisiSpecSpectre models InvisiSpec's Spectre threat model: speculative
// loads are invisible to the cache until all older branches resolve.
func InvisiSpecSpectre() Policy {
	return Policy{Name: "InvisiSpec-Spectre", Gates: []Gate{{EdgeFill, ScopeUnderGuard, ReleaseGuardsResolve}}}
}

// InvisiSpecFuture models InvisiSpec's futuristic threat model: speculative
// loads are invisible to the cache until they retire.
func InvisiSpecFuture() Policy {
	return Policy{Name: "InvisiSpec-Future", Gates: []Gate{{EdgeFill, ScopeAlways, ReleaseRetire}}}
}

// constructors lists the evaluated configurations in Fig. 7 order (the
// in-order core is driven separately by the harness).
var constructors = []func() Policy{
	Baseline,
	Permissive, PermissiveBR,
	Strict, StrictBR,
	LoadRestrict, FullProtection,
	InvisiSpecSpectre, InvisiSpecFuture,
}

// byName maps each policy's Name to its constructor, so a lookup builds
// only the policy it returns. The first lookup builds the map.
var byName = sync.OnceValue(func() map[string]func() Policy {
	m := make(map[string]func() Policy, len(constructors))
	for _, mk := range constructors {
		m[mk().Name] = mk
	}
	return m
})

// All returns the evaluated configurations in Fig. 7 order. Each call
// builds new gate lists, so callers may keep or change theirs.
func All() []Policy {
	out := make([]Policy, len(constructors))
	for i, mk := range constructors {
		out[i] = mk()
	}
	return out
}

// ByName returns the policy with the given Name, with a gate list of its
// own.
func ByName(name string) (Policy, error) {
	if mk, ok := byName()[name]; ok {
		return mk(), nil
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q", name)
}

// Secure reports whether the policy restricts speculation at all.
func (p Policy) Secure() bool { return len(p.Gates) > 0 }

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
	// instruction follows a still-unresolved guard. Rules.RecomputeGuards
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
