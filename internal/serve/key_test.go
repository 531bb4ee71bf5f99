package serve

import (
	"testing"

	"nda/internal/ooo"
)

// TestKeyGolden pins the exact key strings produced for fixed payloads.
// The key preimage folds in store.FormatVersion, so these literals break —
// loudly, as a golden diff — if anyone bumps the format version or changes
// the preimage layout without meaning to. An intentional bump updates the
// literals here in the same change, which is exactly the review surface we
// want: key migration is a decision, not an accident.
func TestKeyGolden(t *testing.T) {
	type payload struct {
		Workload string `json:"workload"`
		InOrder  bool   `json:"in_order"`
		Policy   string `json:"policy"`
	}
	cases := []struct {
		kind    string
		payload any
		want    string
	}{
		{"sweep-cell", payload{Workload: "ptrchase", Policy: "OoO"}, "sweep-cell:ee99a26ebba7eecac6f84c9734d75a01"},
		{"sweep-cell", payload{Workload: "ptrchase", Policy: "Permissive"}, "sweep-cell:7764b90792ae6bcd3ba901436c980451"},
		{"sweep-cell", payload{Workload: "ptrchase", InOrder: true}, "sweep-cell:81bac65a42ddd439e1ebfd4c3d586525"},
		{"attack-cell", payload{Workload: "spectre-v1", Policy: "OoO"}, "attack-cell:1c824e5bfa187820ae1efa2fd907708a"},
		{"gadget", struct {
			Program string `json:"program"`
			Window  int    `json:"window"`
		}{"leak_loop", 8}, "gadget:9be0a570eb5b0ce4984572f3124a2c89"},
	}
	for _, c := range cases {
		if got := Key(c.kind, c.payload); got != c.want {
			t.Errorf("Key(%q, %+v)\n  got  %s\n  want %s", c.kind, c.payload, got, c.want)
		}
	}
}

// TestKeyDistinguishes proves the properties the golden pins rely on: the
// kind tag and every payload field participate in the hash, and equal
// inputs collide (that collision is the whole caching scheme).
func TestKeyDistinguishes(t *testing.T) {
	type p struct{ A, B string }
	base := Key("k", p{"x", "y"})
	if Key("k", p{"x", "y"}) != base {
		t.Fatal("identical inputs produced different keys")
	}
	for name, other := range map[string]string{
		"kind":  Key("k2", p{"x", "y"}),
		"field": Key("k", p{"x", "z"}),
	} {
		if other == base {
			t.Fatalf("changing %s did not change the key", name)
		}
	}
}

// TestCellKeyGolden pins the keys the production cell constructors derive:
// the addresses of every persisted store entry. A drift in a key payload
// (sweepCellKey, seriesKey, attackCellKey, gadgetKey) or in what the
// constructors put into one would orphan every stored result while every
// byte-identity test still passed. Each cell is built twice — from a job's
// plan and from the CellRequest a coordinator would send for it — and both
// must land on the pinned key.
func TestCellKeyGolden(t *testing.T) {
	params := ooo.DefaultParams()
	planned := func(p *plan, err error) []cell {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p.cells
	}
	sweep := planned(SweepRequest{Workloads: []string{"gcc"}, Policies: []string{"OoO", "Strict+BR"}}.plan())
	ckpt := SamplingSpec{Quick: true, Checkpoints: true}
	quick := planned(SweepRequest{Workloads: []string{"mcf"}, Policies: []string{"Permissive+BR"}, NoInOrder: true, Sampling: ckpt}.plan())
	atk := planned(AttackRequest{Attacks: []string{"meltdown", "ssb"}, Policies: []string{"Permissive"}}.plan(params))
	gad := planned(GadgetsRequest{Programs: []string{"meltdown", "mcf"}}.plan())

	cases := []struct {
		name string
		c    cell
		want string
	}{
		{"sweep gcc/OoO", sweep[0], "sweep-cell:5d7909a4f47f73b2255a8dc5bb943de9"},
		{"sweep gcc/Strict+BR", sweep[1], "sweep-cell:2d71e6d36518855bd2d7a60ebd3a0f29"},
		{"sweep gcc/In-Order", sweep[2], "sweep-cell:b388c06449d73a3005aed387ddcbcb1a"},
		{"checkpointed quick sweep mcf/Permissive+BR", quick[0], "sweep-cell:dab72f67bc5181066110009ffed3213b"},
		{"attack meltdown/Permissive", atk[0], "attack-cell:314416ca3817793b6779a132ad867013"},
		{"attack ssb/In-Order", atk[3], "attack-cell:afeabca4b51acd652244abdae3f03e4b"},
		{"gadget meltdown", gad[0], "gadget:6c5f0ac8dc24149ec89ce6e3ae1b82d5"},
		{"gadget mcf", gad[1], "gadget:ed30f5ce1ea5c246b56d05e4a2741cd8"},
	}
	for _, tc := range cases {
		if tc.c.key != tc.want {
			t.Errorf("%s: planned key\n  got  %s\n  want %s", tc.name, tc.c.key, tc.want)
		}
		remote, err := tc.c.req.cell(params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if remote.key != tc.want {
			t.Errorf("%s: CellRequest key\n  got  %s\n  want %s", tc.name, remote.key, tc.want)
		}
	}

	// The checkpoint series a quick checkpointed cell samples from.
	if got, want := seriesID(quick[0].sweep.Spec, *quick[0].cfg), "series:c71d5f149805c92dc51090e9a8edb662"; got != want {
		t.Errorf("series mcf key\n  got  %s\n  want %s", got, want)
	}
}
