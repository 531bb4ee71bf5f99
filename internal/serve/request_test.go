package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"nda/internal/core"
	"nda/internal/harness"
	"nda/internal/stats"
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

// TestCheckpointSweepBoundedInBytes: a sweep at the interval ceiling asks
// for one checkpoint per interval, each a clone of mcf's whole image, far
// past checkpoint.SeriesBudget. Its series fails before the fast-forward:
// the cancelled ctx would otherwise stop it with ctx's own error.
func TestCheckpointSweepBoundedInBytes(t *testing.T) {
	var req SweepRequest
	if err := decode([]byte(`{"workloads":["mcf"],"sampling":{"checkpoints":true,"intervals":1024}}`), &req); err != nil {
		t.Fatal(err)
	}
	p, err := req.plan()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := p.cells[0]
	if _, err := harness.TakeSamples(ctx, c.sweep.Spec, *c.cfg); err == nil || !strings.Contains(err.Error(), "series budget") {
		t.Fatalf("err = %v, want the series budget error", err)
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

// referenceSweepResponse builds the SweepResponse of a grid the way
// encoding/json sees it: the measurements set into a harness.Sweep and
// the overheads read from Sweep.Overhead. ms is in harness.Grid's order.
func referenceSweepResponse(workloads, configs []string, ms []*harness.Measurement) *SweepResponse {
	sw := harness.NewSweep(workloads, configs)
	for w, wl := range workloads {
		for c, cf := range configs {
			sw.Set(cf, wl, ms[w*len(configs)+c])
		}
	}
	resp := &SweepResponse{Sweep: sw}
	if sw.Baseline(sw.Workloads[0]) != nil {
		resp.Overheads = make(map[string]float64, len(sw.Configs))
		for _, name := range sw.Configs {
			if name != core.Baseline().Name {
				resp.Overheads[name] = sw.Overhead(name)
			}
		}
	}
	return resp
}

// checkSplice compares sweepResponseJSON over ms, each spliced from its
// json.Marshal encoding, with json.Marshal of the reference response:
// the same bytes, or the same error.
func checkSplice(t *testing.T, what string, workloads, configs []string, ms []*harness.Measurement) {
	t.Helper()
	rs := make([]resolved, len(ms))
	for i, m := range ms {
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: cell %d: %v", what, i, err)
		}
		rs[i] = resolved{m, enc}
	}
	got, gotErr := sweepResponseJSON(workloads, configs, rs)
	want, wantErr := json.Marshal(referenceSweepResponse(workloads, configs, ms))
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, want %v", what, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Errorf("%s: spliced bytes differ from json.Marshal:\ngot:  %s\nwant: %s", what, got, want)
	case cap(got) > len(got)+len(configs)*(maxJSONFloatLen+16)+64:
		t.Errorf("%s: buffer cap %d for %d bytes, want it sized to the response", what, cap(got), len(got))
	}
}

// syntheticCells fills a workloads × configs grid, in harness.Grid's
// order, with measurements whose CPI means come from cpi.
func syntheticCells(workloads, configs []string, cpi func(w, c int) float64) []*harness.Measurement {
	ms := make([]*harness.Measurement, 0, len(workloads)*len(configs))
	for w, wl := range workloads {
		for c, cf := range configs {
			ms = append(ms, &harness.Measurement{
				Workload: wl, Config: cf,
				CPI:    stats.Summary{N: 3, Mean: cpi(w, c), Stddev: 0.01 * float64(c), CI95: 1e-7 * float64(w)},
				Cycles: uint64(1000 + 17*w + c), Committed: uint64(900 + w),
				MLP: 1.25 + float64(w)/7, ILP: float64(c) / 3, MispredictRate: 1e-9 * float64(w+c),
			})
		}
	}
	return ms
}

// TestSweepResponseMatchesJSON: a sweep job's response, spliced from its
// cells' encodings, is byte for byte what json.Marshal gives for the
// SweepResponse, over request subsets with and without the baseline and
// the in-order core, awkward overhead values, names encoding/json
// escapes, and an overhead json.Marshal refuses.
func TestSweepResponseMatchesJSON(t *testing.T) {
	cpi := func(w, c int) float64 { return 0.4 + float64((w*7+c*13)%17)/5 }
	spec := workload.SPEC()
	var all []string
	for _, s := range spec {
		all = append(all, s.Name)
	}
	for _, wls := range [][]string{{"gcc"}, {"xz", "gcc", "mcf"}, nil} {
		for _, pols := range [][]string{{"OoO"}, {"Permissive"}, {"Strict", "OoO"}, {"FullProtection", "OoO", "InvisiSpec-Future"}, nil} {
			for _, noInOrder := range []bool{false, true} {
				req := SweepRequest{Workloads: wls, Policies: pols, NoInOrder: noInOrder, Sampling: SamplingSpec{Quick: true}}
				p, err := req.plan()
				if err != nil {
					t.Fatal(err)
				}
				workloads := wls
				if workloads == nil {
					workloads = all
				}
				var configs []string
				for _, c := range p.cells[:len(p.cells)/len(workloads)] {
					configs = append(configs, c.sweep.Config())
				}
				ms := syntheticCells(workloads, configs, cpi)
				what := strings.Join(workloads, ",") + " × " + strings.Join(configs, ",")
				checkSplice(t, what, workloads, configs, ms)

				// The plan's own assemble gives the same bytes.
				rs := make([]resolved, len(ms))
				for i, m := range ms {
					rs[i] = resolved{m, mustJSON("test", m)}
				}
				got, err := p.assemble(rs)
				want, _ := json.Marshal(referenceSweepResponse(workloads, configs, ms))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: plan assembled %s (%v), want %s", what, got, err, want)
				}
				if has := bytes.Contains(got, []byte(`"overheads_pct"`)); has != (len(configs) > 1 && slices.Contains(configs, "OoO")) {
					t.Errorf("%s: overheads_pct present = %v", what, has)
				}
			}
		}
	}

	// Overheads of 0, about ±1e-7, 1e-6 and 1e21, negative, and -100 when
	// no workload has a usable CPI.
	configs := []string{"OoO", "Zero", "Tiny", "NegTiny", "Micro", "Huge", "Faster", "NoCPI"}
	overheadCPI := map[string]float64{"OoO": 2, "Zero": 2, "Tiny": 2 * (1 + 1e-9), "NegTiny": 2 * (1 - 1e-9),
		"Micro": 2 * (1 + 1e-8), "Huge": 2e19, "Faster": 0.5, "NoCPI": 0}
	checkSplice(t, "awkward floats", []string{"gcc", "mcf"}, configs, syntheticCells([]string{"gcc", "mcf"}, configs,
		func(w, c int) float64 { return overheadCPI[configs[c]] }))
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20, -1e21, 1.5e-300, -42.125, 123456789.0625, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, _ := json.Marshal(f)
		if got, err := appendJSONFloat(nil, f); err != nil || !bytes.Equal(got, want) || len(got) > maxJSONFloatLen {
			t.Errorf("appendJSONFloat(%g) = %s (%v), want %s", f, got, err, want)
		}
	}

	// Names that encoding/json escapes, and keys whose byte order differs
	// from their escaped order.
	wls, cfs := []string{"b<c", "a&b", "line\u2028sep", "Zed", "é"}, []string{"P>1", "OoO", "q\"x", "In-Order"}
	checkSplice(t, "escaped names", wls, cfs, syntheticCells(wls, cfs, cpi))
	checkSplice(t, "no baseline", wls, cfs[2:], syntheticCells(wls, cfs[2:], cpi))

	// An overhead that overflows to +Inf fails the response as it fails
	// json.Marshal; so do NaN and -Inf.
	cfs = []string{"OoO", "Slow", "Strict"}
	checkSplice(t, "infinite overhead", []string{"gcc"}, cfs, syntheticCells([]string{"gcc"}, cfs, func(w, c int) float64 {
		return []float64{1e-300, 1e300, 1}[c]
	}))
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if _, err := appendJSONFloat(nil, f); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("appendJSONFloat(%g) error %v, want %v", f, err, want)
		}
	}
}
