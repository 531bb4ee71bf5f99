package attack

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/ooo"
)

// TestReusedCoresMatchFresh runs the whole matrix in reverse grid order on
// one reused checkpoint.Cores, so each attack's in-order cell falls
// between OoO cells of two other programs and every OoO cell follows one
// under another policy. Each outcome, series, cycle count and sanitizer
// count included, must equal Cell.Run's on new cores, and both must equal
// the checked-in golden matrix: a start state or post-resume hook that
// both paths got wrong alike (a PoC's planted secret, Meltdown's warm
// kernel line) shows as drift from the recorded bytes.
func TestReusedCoresMatchFresh(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden/attack_matrix.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []Cell
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	cells := Grid(All(), core.All(), true)
	if len(golden) != len(cells) {
		t.Fatalf("golden has %d cells, the grid %d", len(golden), len(cells))
	}
	params := ooo.DefaultParams()
	params.Sanitize = true
	ctx := context.Background()
	var cs checkpoint.Cores
	for k := len(cells) - 1; k >= 0; k-- {
		c := cells[k]
		got, err := c.run(ctx, params, &cs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Run(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s under %s: reused cores give\n%+v\nnew cores give\n%+v", c.Attack, c.Policy, got, want)
		}
		if g := golden[k]; g.Attack != c.Attack || g.Policy != c.Policy || !reflect.DeepEqual(g.Outcome, want) {
			t.Errorf("%s under %s: outcome drifted from the golden %s under %s:\n%+v\nwant\n%+v", c.Attack, c.Policy, g.Attack, g.Policy, want, g.Outcome)
		}
	}
}
