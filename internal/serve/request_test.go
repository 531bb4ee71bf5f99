package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nda/internal/core"
	"nda/internal/workload"
)

// TestPlanRejectsRepeatedNames: every request kind refuses a list that
// names the same workload, policy, attack or program twice, instead of
// planning one cell per repeat.
func TestPlanRejectsRepeatedNames(t *testing.T) {
	cases := []struct {
		name string
		plan func() (*plan, error)
	}{
		{"workload", SweepRequest{Workloads: []string{"gcc", "mcf", "gcc"}}.plan},
		{"sweep policy", SweepRequest{Workloads: []string{"gcc"}, Policies: []string{"OoO", "Strict", "OoO"}}.plan},
		{"attack", AttackRequest{Attacks: []string{"meltdown", "meltdown"}}.plan},
		{"attack policy", AttackRequest{Attacks: []string{"meltdown"}, Policies: []string{"Strict", "Strict"}}.plan},
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

// FuzzCellRequest: arbitrary bytes at the request boundary, decoded the
// way the handlers decode them, never panic, and a body that validates
// asks only for bounded work — a cell's interval count stays under the
// ceiling, and a sweep plans at most every workload under every
// configuration plus the in-order bound. The seed corpus, crashBodies
// included, is in testdata/fuzz/FuzzCellRequest.
func FuzzCellRequest(f *testing.F) {
	maxCells := len(workload.SPEC()) * (len(core.All()) + 1)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CellRequest
		if decode(body, &req) == nil {
			if c, err := req.cell(); err == nil && c.cfg != nil && c.cfg.Intervals > maxIntervals {
				t.Fatalf("cell resolved %d intervals, above the %d ceiling", c.cfg.Intervals, maxIntervals)
			}
		}
		var sweep SweepRequest
		if decode(body, &sweep) == nil {
			if p, err := sweep.plan(); err == nil {
				if len(p.cells) > maxCells {
					t.Fatalf("sweep planned %d cells, above the %d grid", len(p.cells), maxCells)
				}
				if n := p.cells[0].cfg.Intervals; n > maxIntervals {
					t.Fatalf("sweep resolved %d intervals, above the %d ceiling", n, maxIntervals)
				}
			}
		}
	})
}

// decode unmarshals body the way the HTTP handlers do: unknown fields are
// an error.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
