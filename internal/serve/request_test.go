package serve

import (
	"strings"
	"testing"

	"nda/internal/ooo"
)

// TestPlanRejectsRepeatedNames: every request kind refuses a list that
// names the same workload, policy, attack or program twice, instead of
// planning one cell per repeat.
func TestPlanRejectsRepeatedNames(t *testing.T) {
	params := ooo.DefaultParams()
	cases := []struct {
		name string
		plan func() (*plan, error)
	}{
		{"workload", SweepRequest{Workloads: []string{"gcc", "mcf", "gcc"}}.plan},
		{"sweep policy", SweepRequest{Workloads: []string{"gcc"}, Policies: []string{"OoO", "Strict", "OoO"}}.plan},
		{"attack", func() (*plan, error) {
			return AttackRequest{Attacks: []string{"meltdown", "meltdown"}}.plan(params)
		}},
		{"attack policy", func() (*plan, error) {
			return AttackRequest{Attacks: []string{"meltdown"}, Policies: []string{"Strict", "Strict"}}.plan(params)
		}},
		{"program", GadgetsRequest{Programs: []string{"mcf", "meltdown", "mcf"}}.plan},
	}
	for _, c := range cases {
		p, err := c.plan()
		if err == nil || !strings.Contains(err.Error(), "more than once") {
			t.Errorf("%s: err = %v, want a repeated-name error", c.name, err)
		}
		if p != nil {
			t.Errorf("%s: planned %d cells for a rejected request", c.name, len(p.cells))
		}
	}
	// The same lists without the repeat still plan.
	if _, err := (SweepRequest{Workloads: []string{"gcc", "mcf"}, Policies: []string{"OoO", "Strict"}}).plan(); err != nil {
		t.Errorf("distinct sweep rejected: %v", err)
	}
}
