package analysis

import (
	"go/ast"
	"strings"
	"testing"
)

// loadShapes builds the call graph over the shapes corpus once per test.
func loadShapes(t *testing.T) *CallGraph {
	t.Helper()
	m, err := Load("testdata/shapes")
	if err != nil {
		t.Fatalf("load shapes: %v", err)
	}
	return BuildCallGraph(m)
}

// calls reports whether any call site of n may reach target.
func calls(n, target *FuncNode) bool {
	for _, cs := range n.Calls {
		for _, t := range cs.Targets() {
			if t == target {
				return true
			}
		}
	}
	return false
}

// staticWalk is alloclint's hot-path walk from root, with no cold spans.
func staticWalk(root *FuncNode) map[*FuncNode][]string {
	return hotReachable(root, func(*FuncNode) [][2]ast.Node { return nil })
}

// node is a fatal-on-missing NodeByName lookup.
func node(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	n := g.NodeByName(name)
	if n == nil {
		t.Fatalf("call graph has no node %q", name)
	}
	return n
}

func TestCallGraphMutualRecursion(t *testing.T) {
	g := loadShapes(t)
	even := node(t, g, "shapes/s.Even")
	odd := node(t, g, "shapes/s.Odd")
	if even.scc != odd.scc {
		t.Error("Even and Odd are mutually recursive but landed in different SCCs")
	}
	if !calls(even, odd) || !calls(odd, even) {
		t.Error("Even and Odd do not call each other")
	}
	reach := staticWalk(even)
	if chain := reach[odd]; len(chain) != 1 || chain[0] != odd.Name {
		t.Errorf("chain to Odd = %v, want [%s]", chain, odd.Name)
	}
	if chain, ok := reach[even]; !ok || len(chain) != 0 {
		t.Errorf("root chain = %v, want present and empty", chain)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := loadShapes(t)
	disp := node(t, g, "shapes/s.Dispatch")
	if len(disp.Calls) != 1 {
		t.Fatalf("Dispatch has %d call sites, want 1", len(disp.Calls))
	}
	cs := disp.Calls[0]
	if cs.Static != nil {
		t.Error("interface call resolved to a static target")
	}
	if !cs.Unknown {
		t.Error("interface call not marked Unknown (external implementers are always possible)")
	}
	want := map[string]bool{"shapes/s.(A).Run": false, "shapes/s.(*B).Run": false}
	for _, c := range cs.Candidates {
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("CHA candidates missing implementer %s (have %d candidates)", name, len(cs.Candidates))
		}
	}

	// The dynamic site lists its candidates as targets, but alloclint's
	// static walk stops at it.
	run := node(t, g, "shapes/s.(A).Run")
	if !calls(disp, run) {
		t.Error("interface call's targets miss (A).Run")
	}
	if _, ok := staticWalk(disp)[run]; ok {
		t.Error("the static walk followed a dynamic edge")
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	g := loadShapes(t)
	cv := node(t, g, "shapes/s.CallValue")
	if len(cv.Calls) != 1 {
		t.Fatalf("CallValue has %d call sites, want 1", len(cv.Calls))
	}
	cs := cv.Calls[0]
	if cs.Static != nil {
		t.Error("func-value call resolved to a static target")
	}
	found := false
	for _, c := range cs.Candidates {
		if c.Name == "shapes/s.(*Counter).Inc" {
			found = true
		}
	}
	if !found {
		t.Errorf("func() candidates missing the method value (*Counter).Inc; have %d candidates", len(cs.Candidates))
	}
}

func TestCallGraphGoLiteralCapture(t *testing.T) {
	g := loadShapes(t)
	sc := node(t, g, "shapes/s.SpawnCapture")
	var spawn *CallSite
	for _, cs := range sc.Calls {
		if cs.Go {
			spawn = cs
		}
	}
	if spawn == nil {
		t.Fatal("SpawnCapture's go statement produced no call site")
	}
	if spawn.Static == nil || spawn.Static.Lit == nil {
		t.Fatal("go func(){...}() did not resolve statically to the literal's node")
	}
	if !strings.Contains(spawn.Static.Name, "SpawnCapture.func@") {
		t.Errorf("literal node name = %q, want enclosing-scoped func@ name", spawn.Static.Name)
	}
	// The capture is charged to the enclosing function's summary.
	foundCapture := false
	for _, op := range sc.summary.allocOps {
		if strings.Contains(op.desc, "closure captures") {
			foundCapture = true
		}
	}
	if !foundCapture {
		t.Error("capturing literal not recorded as an allocation in the enclosing summary")
	}
}

func TestCallGraphGenericInstantiation(t *testing.T) {
	g := loadShapes(t)
	use := node(t, g, "shapes/s.UseMap")
	mp := node(t, g, "shapes/s.Map")
	if _, ok := staticWalk(use)[mp]; !ok || !calls(use, mp) {
		t.Error("Map[int] instantiation did not resolve to the generic's node via Origin")
	}
	// double is passed as a func value to Map's f parameter; Map's f(x)
	// call must list it as a candidate.
	var dyn *CallSite
	for _, cs := range mp.Calls {
		if cs.Static == nil && cs.External == nil {
			dyn = cs
		}
	}
	if dyn == nil {
		t.Fatal("Map has no dynamic call site for f(x)")
	}
	found := false
	for _, c := range dyn.Candidates {
		if c.Name == "shapes/s.double" {
			found = true
		}
	}
	if !found {
		t.Errorf("f(x) candidates missing address-taken double; have %d candidates", len(dyn.Candidates))
	}
}
