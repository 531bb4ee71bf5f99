package analysis

import (
	"reflect"
	"strings"
	"testing"
)

// TestSCCs pins the shared traversal on a small graph: components come out
// dependency-first, a component lists every member in visiting order, and
// only multi-member components and self-loops count as cycles.
func TestSCCs(t *testing.T) {
	edges := map[string][]string{
		"a": {"b", "d"},
		"b": {"c"},
		"c": {"a", "d"},
		"d": {"e"},
		"e": {"e"},
	}
	succ := func(n string) []string { return edges[n] }
	got := sccs([]string{"a", "f"}, succ)
	want := [][]string{{"e"}, {"d"}, {"a", "b", "c"}, {"f"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sccs = %v, want %v", got, want)
	}
	for i, wantCycle := range []bool{true, false, true, false} {
		if cyclic(got[i], succ) != wantCycle {
			t.Errorf("cyclic(%v) = %v, want %v", got[i], !wantCycle, wantCycle)
		}
	}
}

// TestContractSelfAllowIsCycle: a rule that allows its own package is a
// cycle, and a longer cycle is reported with every member.
func TestContractSelfAllowIsCycle(t *testing.T) {
	self := []Rule{{Path: "m/a", Class: Service, Allow: []string{"m/a"}}}
	if cyc := contractCycle(self); cyc != "m/a" {
		t.Errorf("self-allow cycle = %q, want m/a", cyc)
	}
	three := []Rule{
		{Path: "m/a", Class: Service, Allow: []string{"m/b"}},
		{Path: "m/b", Class: Service, Allow: []string{"m/c"}},
		{Path: "m/c", Class: Service, Allow: []string{"m/a"}},
	}
	cyc := contractCycle(three)
	for _, p := range []string{"m/a", "m/b", "m/c"} {
		if !strings.Contains(cyc, p) {
			t.Errorf("cycle %q does not name %s", cyc, p)
		}
	}
}
