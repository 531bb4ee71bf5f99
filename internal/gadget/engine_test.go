package gadget

import (
	"testing"

	"nda/internal/attack"
	"nda/internal/core"
)

// Every secure policy's gate set must be load-bearing: re-deriving the
// builtin attacks' verdicts with one policy's gates deleted has to break
// the Table 2 cross-validation for that policy. If it does not, the
// declarative spec has drifted into dead weight and the engine is passing
// the table for some other reason.
func TestGateSpecsLoadBearing(t *testing.T) {
	ins, err := Builtins()
	if err != nil {
		t.Fatal(err)
	}
	type att struct {
		kind attack.Kind
		an   *Analysis
	}
	var atts []att
	for _, in := range ins {
		if in.Group != "attack" {
			continue
		}
		atts = append(atts, att{attack.Kind(in.Name), Analyze(in.Prog, in.Cfg)})
	}
	if len(atts) == 0 {
		t.Fatal("no builtin attacks")
	}

	for _, pol := range core.All() {
		if !pol.Secure() {
			continue
		}
		mismatches := 0
		for _, a := range atts {
			ch := a.kind.Channel()
			leaks := false
			for i := range a.an.Gadgets {
				g := &a.an.Gadgets[i]
				if g.Advisory || string(g.Channel) != ch {
					continue
				}
				if !verdictFromGates(nil, g).Blocked {
					leaks = true
				}
			}
			if leaks != attack.Expected[a.kind][pol.Name] {
				mismatches++
			}
		}
		if mismatches == 0 {
			t.Errorf("%s: deleting its gate spec leaves Table 2 cross-validation passing", pol.Name)
		}
	}
}
