package core

import (
	"strings"
	"testing"

	"nda/internal/isa"
)

// TestPolicyTable2Matrix pins every policy's compiled decision table, entry
// by entry, as the knob-based Policy.Unsafe computed it before policies
// became gate lists. Per policy and isa.Class, a row reads
//
//	"bg0 bg1 bg2 | bg0 bg1 bg2 | w"
//
// The left half is UnderGuard=false and the right half UnderGuard=true.
// Each bgN pair is BypassGuards=N, first not at the ROB head and then at
// it: 'x' means the broadcast is blocked. The last column is 'w' when the
// class waits to be eldest and so retires a cycle after its head wake-up.
// The walk column is the one thing not carried over: whether the core keeps
// UnderGuard current. The knob-based core walked for InvisiSpec-Future too,
// although no rule of that policy reads the bit.
func TestPolicyTable2Matrix(t *testing.T) {
	want := []struct {
		name string
		fill FillMode
		walk bool
		rows [4]string // indexed by isa.Class
	}{
		{"OoO", FillVisible, false, [4]string{
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
		}},
		{"Permissive", FillVisible, true, [4]string{
			".. .. .. | .. .. .. | .",
			".. .. .. | xx xx xx | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
		}},
		{"Permissive+BR", FillVisible, true, [4]string{
			".. xx xx | .. xx xx | .",
			".. xx xx | xx xx xx | .",
			".. xx xx | .. xx xx | .",
			".. xx xx | .. xx xx | .",
		}},
		{"Strict", FillVisible, true, [4]string{
			".. .. .. | xx xx xx | .",
			".. .. .. | xx xx xx | .",
			".. .. .. | xx xx xx | .",
			".. .. .. | xx xx xx | .",
		}},
		{"Strict+BR", FillVisible, true, [4]string{
			".. xx xx | xx xx xx | .",
			".. xx xx | xx xx xx | .",
			".. xx xx | xx xx xx | .",
			".. xx xx | xx xx xx | .",
		}},
		{"RestrictedLoads", FillVisible, false, [4]string{
			".. .. .. | .. .. .. | .",
			"x. x. x. | x. x. x. | w",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
		}},
		{"FullProtection", FillVisible, true, [4]string{
			".. xx xx | xx xx xx | .",
			"x. xx xx | xx xx xx | w",
			".. xx xx | xx xx xx | .",
			".. xx xx | xx xx xx | .",
		}},
		{"InvisiSpec-Spectre", FillAtResolve, true, [4]string{
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
		}},
		{"InvisiSpec-Future", FillAtRetire, false, [4]string{
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
			".. .. .. | .. .. .. | .",
		}},
	}
	if len(want) != len(All()) {
		t.Fatalf("pinned %d tables for %d policies", len(want), len(All()))
	}
	for i, p := range All() {
		w := want[i]
		if p.Name != w.name {
			t.Fatalf("policy %d is %s, pinned %s", i, p.Name, w.name)
		}
		r := Compile(p.Gates)
		if r.Fill != w.fill || r.Walk != w.walk {
			t.Errorf("%s: fill mode %d, walk %v; want %d, %v", p.Name, r.Fill, r.Walk, w.fill, w.walk)
		}
		for c := isa.Class(0); c < isa.Class(len(w.rows)); c++ {
			var b strings.Builder
			for _, ug := range []bool{false, true} {
				if ug {
					b.WriteString(" | ")
				}
				for bg := 0; bg < 3; bg++ {
					if bg > 0 {
						b.WriteByte(' ')
					}
					for _, head := range []bool{false, true} {
						b.WriteByte(".x"[b2i(r.Unsafe(&Node{Class: c, UnderGuard: ug, BypassGuards: bg}, head))])
					}
				}
			}
			b.WriteString(" | ")
			b.WriteByte(".w"[b2i(r.WaitsForEldest(c))])
			if got := b.String(); got != w.rows[c] {
				t.Errorf("%s, class %d:\n  got  %q\n  want %q", p.Name, c, got, w.rows[c])
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSecure(t *testing.T) {
	if Baseline().Secure() {
		t.Error("baseline must not claim security")
	}
	for _, p := range All()[1:] {
		if !p.Secure() {
			t.Errorf("%s must be secure", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, p := range All() {
		got, err := ByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("ByName(%q) = %v, %v", p.Name, got.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
	if len(byName()) != len(constructors) {
		t.Errorf("index holds %d policies, %d constructors: names must be distinct", len(byName()), len(constructors))
	}
}

// TestByNameBuildsOnlyTheNamedPolicy: a lookup allocates what the named
// policy's constructor does and nothing more, and every caller gets a gate
// list of its own.
func TestByNameBuildsOnlyTheNamedPolicy(t *testing.T) {
	for _, mk := range constructors {
		name := mk().Name
		own := testing.AllocsPerRun(100, func() { _ = mk() })
		if got := testing.AllocsPerRun(100, func() { _, _ = ByName(name) }); got != own {
			t.Errorf("ByName(%q) allocates %v times per call, its constructor %v", name, got, own)
		}
	}
	a, _ := ByName("FullProtection")
	a.Gates[0] = Gate{EdgeFill, ScopeAlways, ReleaseRetire}
	if b, _ := ByName("FullProtection"); b.Gates[0] != FullProtection().Gates[0] {
		t.Error("ByName callers share a gate list")
	}
}

// mkNodes builds a ROB view from a class string: b=branch (unresolved),
// B=branch (resolved), l=load, s=store, a=alu.
func mkNodes(spec string) []*Node {
	nodes := make([]*Node, len(spec))
	for i, ch := range spec {
		n := &Node{}
		switch ch {
		case 'b':
			n.Class = isa.ClassBranch
		case 'B':
			n.Class = isa.ClassBranch
			n.GuardResolved = true
		case 'l':
			n.Class = isa.ClassLoad
		case 's':
			n.Class = isa.ClassStore
		case 'a':
			n.Class = isa.ClassOther
		}
		nodes[i] = n
	}
	return nodes
}

func TestRecomputeGuardsWalk(t *testing.T) {
	p := Compile(Strict().Gates)
	nodes := mkNodes("aBlbal")
	p.RecomputeGuards(nodes)
	want := []bool{false, false, false, false, true, true}
	for i, n := range nodes {
		if n.UnderGuard != want[i] {
			t.Errorf("node %d UnderGuard = %v, want %v", i, n.UnderGuard, want[i])
		}
	}
}

func TestRecomputeGuardsResolutionClears(t *testing.T) {
	p := Compile(Permissive().Gates)
	nodes := mkNodes("blal")
	p.RecomputeGuards(nodes)
	if !nodes[1].UnderGuard || !nodes[3].UnderGuard {
		t.Fatal("loads after unresolved branch must be under guard")
	}
	nodes[0].GuardResolved = true // branch resolves
	p.RecomputeGuards(nodes)
	for i, n := range nodes {
		if n.UnderGuard {
			t.Errorf("node %d still under guard after resolution", i)
		}
	}
}

func TestRecomputeGuardsStopsAtNextUnresolved(t *testing.T) {
	// "mark safe until the NEXT eldest unresolved branch" (§5.1).
	p := Compile(Strict().Gates)
	nodes := mkNodes("Bababa")
	p.RecomputeGuards(nodes)
	want := []bool{false, false, false, true, true, true}
	for i, n := range nodes {
		if n.UnderGuard != want[i] {
			t.Errorf("node %d UnderGuard = %v, want %v", i, n.UnderGuard, want[i])
		}
	}
}

func TestBaselineNeverRestricts(t *testing.T) {
	p := Compile(Baseline().Gates)
	n := &Node{Class: isa.ClassLoad, UnderGuard: true, BypassGuards: 3, Completed: true}
	if p.Unsafe(n, false) {
		t.Error("baseline must never mark anything unsafe")
	}
	if !p.MayBroadcast(n, false) {
		t.Error("baseline must broadcast completed instructions")
	}
}

func TestPermissiveRestrictsOnlyLoads(t *testing.T) {
	p := Compile(Permissive().Gates)
	load := &Node{Class: isa.ClassLoad, UnderGuard: true, Completed: true}
	alu := &Node{Class: isa.ClassOther, UnderGuard: true, Completed: true}
	if !p.Unsafe(load, false) {
		t.Error("permissive must restrict a load under guard")
	}
	if p.Unsafe(alu, false) {
		t.Error("permissive must not restrict ALU ops (§5.2)")
	}
	load.UnderGuard = false
	if p.Unsafe(load, false) {
		t.Error("guard-free load must be safe")
	}
}

func TestStrictRestrictsEverything(t *testing.T) {
	p := Compile(Strict().Gates)
	for _, cls := range []isa.Class{isa.ClassLoad, isa.ClassOther, isa.ClassStore, isa.ClassBranch} {
		n := &Node{Class: cls, UnderGuard: true, Completed: true}
		if !p.Unsafe(n, false) {
			t.Errorf("strict must restrict class %d under guard", cls)
		}
	}
}

func TestBypassRestriction(t *testing.T) {
	n := &Node{Class: isa.ClassLoad, BypassGuards: 1, Completed: true}
	if !Compile(PermissiveBR().Gates).Unsafe(n, false) {
		t.Error("BR must restrict a load with outstanding bypass guards")
	}
	if Compile(Permissive().Gates).Unsafe(n, false) {
		t.Error("plain permissive must ignore bypass guards (does not block SSB)")
	}
	n.BypassGuards = 0
	if Compile(PermissiveBR().Gates).Unsafe(n, false) {
		t.Error("cleared guards must release the load")
	}
}

func TestLoadRestriction(t *testing.T) {
	p := Compile(LoadRestrict().Gates)
	load := &Node{Class: isa.ClassLoad, Completed: true}
	if !p.Unsafe(load, false) {
		t.Error("load restriction must hold a non-head load")
	}
	if p.Unsafe(load, true) {
		t.Error("the eldest load must be safe (about to retire)")
	}
	alu := &Node{Class: isa.ClassOther, UnderGuard: true, Completed: true}
	if p.Unsafe(alu, false) {
		t.Error("load restriction must not touch non-loads")
	}
}

func TestFullProtectionComposes(t *testing.T) {
	p := Compile(FullProtection().Gates)
	load := &Node{Class: isa.ClassLoad, Completed: true}
	if !p.Unsafe(load, false) {
		t.Error("full protection must load-restrict")
	}
	alu := &Node{Class: isa.ClassOther, UnderGuard: true, Completed: true}
	if !p.Unsafe(alu, false) {
		t.Error("full protection must strict-restrict")
	}
	headLoad := &Node{Class: isa.ClassLoad, Completed: true}
	if p.Unsafe(headLoad, true) {
		t.Error("eldest guard-free load must broadcast under full protection")
	}
}

func TestMayBroadcastRequiresCompletion(t *testing.T) {
	p := Compile(Baseline().Gates)
	n := &Node{Class: isa.ClassOther}
	if p.MayBroadcast(n, false) {
		t.Error("incomplete instruction must not broadcast")
	}
	n.Completed = true
	n.Broadcast = true
	if p.MayBroadcast(n, false) {
		t.Error("already-broadcast instruction must not broadcast again")
	}
}

func TestInvisiSpecDoesNotRestrictPropagation(t *testing.T) {
	for _, p := range []Policy{InvisiSpecSpectre(), InvisiSpecFuture()} {
		n := &Node{Class: isa.ClassLoad, UnderGuard: true, Completed: true}
		if Compile(p.Gates).Unsafe(n, false) {
			t.Errorf("%s must not defer broadcasts (it hides fills instead)", p.Name)
		}
	}
}

func TestRdmsrIsLoadClass(t *testing.T) {
	// §4.3: special-register reads are treated like loads by every policy.
	n := &Node{Class: isa.ClassOf(isa.Inst{Op: isa.OpRdmsr}), Completed: true}
	if !Compile(LoadRestrict().Gates).Unsafe(n, false) {
		t.Error("rdmsr must be load-restricted")
	}
}

func TestBypassRestrictionMultipleStores(t *testing.T) {
	// A load can bypass several older stores whose addresses are all still
	// unresolved. Bypass Restriction must hold its broadcast until the LAST
	// guard clears, and resolving them one at a time must not release it
	// early — not even from the ROB head, where Load Restriction alone
	// would let it go.
	n := &Node{Class: isa.ClassLoad, Completed: true, BypassGuards: 2}
	for _, pol := range []Policy{PermissiveBR(), StrictBR(), FullProtection()} {
		p := Compile(pol.Gates)
		n.BypassGuards = 2
		if !p.Unsafe(n, false) || !p.Unsafe(n, true) {
			t.Errorf("%s: two outstanding bypass guards must restrict, head or not", pol.Name)
		}
		n.BypassGuards-- // first store address resolves
		if !p.Unsafe(n, false) || !p.Unsafe(n, true) {
			t.Errorf("%s: one remaining bypass guard must still restrict", pol.Name)
		}
		n.BypassGuards-- // last store address resolves
		if p.Unsafe(n, true) {
			t.Errorf("%s: all bypass guards cleared; eldest load must be releasable", pol.Name)
		}
	}
}

func TestLoadRestrictionStatelessAfterSquash(t *testing.T) {
	// The eldest-unretired check is positional and stateless: after a
	// squash re-steers fetch and the load lands at the ROB head, the same
	// node that was restricted a cycle earlier must become
	// broadcast-eligible with no other state change — no latch may
	// remember the earlier denial.
	p := Compile(LoadRestrict().Gates)
	n := &Node{Class: isa.ClassLoad, Completed: true}
	if !p.Unsafe(n, false) {
		t.Fatal("non-head load must be restricted")
	}
	if p.Unsafe(n, true) || !p.MayBroadcast(n, true) {
		t.Error("the instant the load is eldest unretired it must broadcast")
	}

	// Under Full Protection the same flip needs the guard bit cleared too:
	// a recompute over the post-squash ROB (no older unresolved branch
	// left) must release the head load in one pass.
	fp := Compile(FullProtection().Gates)
	nodes := mkNodes("bl")
	nodes[1].Completed = true
	fp.RecomputeGuards(nodes)
	if !fp.Unsafe(nodes[1], false) {
		t.Fatal("load under an unresolved guard must be restricted")
	}
	post := nodes[1:] // the branch resolved and retired; load is now eldest
	fp.RecomputeGuards(post)
	if fp.Unsafe(post[0], true) {
		t.Error("post-squash recompute must release the eldest guard-free load")
	}
}
