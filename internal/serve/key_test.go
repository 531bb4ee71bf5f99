package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"nda/internal/core"
	"nda/internal/harness"
	"nda/internal/workload"
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
	atk := planned(AttackRequest{Attacks: []string{"meltdown", "ssb"}, Policies: []string{"Permissive"}}.plan())
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
		remote, err := tc.c.req.cell()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if remote.key != tc.want {
			t.Errorf("%s: CellRequest key\n  got  %s\n  want %s", tc.name, remote.key, tc.want)
		}
	}

	// Every policy's sweep and attack cell under its full name. The
	// preimage embeds the policy itself, so a drift in how a policy is
	// serialised orphans that policy's stored results alone.
	perPolicy := map[string][2]string{
		"OoO":                {"sweep-cell:5d7909a4f47f73b2255a8dc5bb943de9", "attack-cell:b405738c26845d26c7678aa75e7bc87c"},
		"Permissive":         {"sweep-cell:ea49bc130770e39e398367cae26e76e9", "attack-cell:172d08fcc8d792757d65c086c08c583f"},
		"Permissive+BR":      {"sweep-cell:09403d374b32a73504e7f08ce802d5a1", "attack-cell:bc1648ae683c6bdf518c653b4a738d24"},
		"Strict":             {"sweep-cell:d1b0802578d809ec864e8a93b4b729b3", "attack-cell:f9c624c2d7fdb238f426139c1bc5a6e4"},
		"Strict+BR":          {"sweep-cell:2d71e6d36518855bd2d7a60ebd3a0f29", "attack-cell:7aa01fe7e0bb9eaea87e752f47af6915"},
		"RestrictedLoads":    {"sweep-cell:b4dac32564c1ff6009a598c9ddef49ae", "attack-cell:6ffefb65163cede82a50b4a5225b4ed1"},
		"FullProtection":     {"sweep-cell:67760651d9d29207bf6842a2a9b13924", "attack-cell:58930edc690e4df9a3a1081780aeb6b1"},
		"InvisiSpec-Spectre": {"sweep-cell:9c33102c6ed014a363440816eb04e7d9", "attack-cell:d041e0a0d30484dd422298dc40afe86f"},
		"InvisiSpec-Future":  {"sweep-cell:02ac57c3965ecea571c0849c76b1e4c9", "attack-cell:11a3358ca34c20d3e17b77a54f5f59b0"},
	}
	for _, pol := range core.All() {
		want, ok := perPolicy[pol.Name]
		if !ok {
			t.Errorf("%s: no pinned cell keys", pol.Name)
			continue
		}
		sw := planned(SweepRequest{Workloads: []string{"gcc"}, Policies: []string{pol.Name}, NoInOrder: true}.plan())
		at := planned(AttackRequest{Attacks: []string{"spectre-v1-cache"}, Policies: []string{pol.Name}, NoInOrder: true}.plan())
		for i, c := range []cell{sw[0], at[0]} {
			if c.key != want[i] {
				t.Errorf("%s: key\n  got  %s\n  want %s", pol.Name, c.key, want[i])
			}
			if remote, err := c.req.cell(); err != nil || remote.key != want[i] {
				t.Errorf("%s: CellRequest key %s (%v), want %s", pol.Name, remote.key, err, want[i])
			}
		}
	}

	// The checkpoint series a quick checkpointed cell samples from.
	if got, want := seriesID(quick[0].sweep.Spec, *quick[0].cfg), "series:c71d5f149805c92dc51090e9a8edb662"; got != want {
		t.Errorf("series mcf key\n  got  %s\n  want %s", got, want)
	}
}

// TestSweepCellPreimageMatchesJSON checks the spliced sweep-cell preimage
// against the json.Marshal of its sweepCellKey, byte for byte, for every
// workload under every policy and the in-order core, in each sampling
// mode a request can name. A policy outside the evaluated set (a Fig. 9e
// delay) takes the encoder path and must agree too.
func TestSweepCellPreimageMatchesJSON(t *testing.T) {
	specs := []SamplingSpec{
		{},            // harness.DefaultConfig
		{Quick: true}, // harness.Quick
		{Quick: true, WarmInsts: 2_000, MeasureInsts: 2_000, SkipInsts: 1_000, Intervals: 3}, // the hot load mix
		{Quick: true, Checkpoints: true, CheckpointStride: 50_000, Intervals: 4},
	}
	delayed := core.StrictBR()
	delayed.ExtraBroadcastDelay = 3
	pols := append(core.All(), delayed)
	for _, ss := range specs {
		cfg, err := ss.resolve()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 5 // stripped from the key view
		cells, _ := harness.Grid(workload.All(), pols, true)
		planned := sweepCells(cells, &cfg, ss)
		keyCfg := cfg
		keyCfg.Workers = 0
		config, err := json.Marshal(keyCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, hc := range cells {
			want, err := json.Marshal(sweepCellKey{Workload: hc.Spec.Name, InOrder: hc.InOrder, Policy: keyOf(hc.Policy), Config: keyCfg})
			if err != nil {
				t.Fatal(err)
			}
			if got := sweepCellPreimage(nil, hc, config); !bytes.Equal(got, want) {
				t.Fatalf("%+v %s/%s: spliced preimage\n  got  %s\n  want %s", ss, hc.Spec.Name, hc.Config(), got, want)
			}
			if got, want := planned[i].key, Key("sweep-cell", sweepCellKey{Workload: hc.Spec.Name, InOrder: hc.InOrder, Policy: keyOf(hc.Policy), Config: keyCfg}); got != want {
				t.Fatalf("%+v %s/%s: key %s, want %s", ss, hc.Spec.Name, hc.Config(), got, want)
			}
		}
	}
}

// TestAppendJSONString: names that need an escape take encoding/json's
// spelling.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{"", "gcc", "Permissive+BR", "a<b>&c", `q"\`, "tab\t", "é", "\u2028", "\x7f", "bad\xff"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("appendJSONString(%q) = %s, want x%s", s, got, want)
		}
	}
}
