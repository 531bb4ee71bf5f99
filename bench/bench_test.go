package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nda/internal/core"
	"nda/internal/harness"
	"nda/internal/workload"
)

const root = ".."

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_./%-]+$`)

// TestBenchmarkFile checks the names, the workloads and the bounds in
// BENCHMARK.json.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the binary runs %v", names, workloadNames)
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !nameRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("bad metric %+v", m)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// toyRunner builds a workload at toy size: a 2x2 sweep and five fuzz
// seeds; serve-hot is unchanged but runs a short window.
func toyRunner(t *testing.T, name string) runner {
	t.Helper()
	specs := workload.SPEC()[:2]
	pols := core.All()[:1]
	cfg := harness.Quick()
	cfg.Workers = workers
	switch name {
	case "sweep":
		return &simRunner{w: &sweep{specs: specs, pols: pols, cfg: cfg, want: toySweepGolden(t, specs, pols)}}
	case "fuzz":
		return &simRunner{w: newFuzz(1, 5)}
	}
	d, err := newRunner(name, 1, root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// toySweepGolden is the golden quick sweep restricted to the toy axes.
func toySweepGolden(t *testing.T, specs []workload.Spec, pols []core.Policy) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "sweep_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var full harness.Sweep
	if err := json.Unmarshal(b, &full); err != nil {
		t.Fatal(err)
	}
	var names, configs []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	for _, p := range pols {
		configs = append(configs, p.Name)
	}
	configs = append(configs, harness.InOrderName)
	sw := harness.NewSweep(names, configs)
	for _, c := range configs {
		for _, n := range names {
			sw.Set(c, n, full.Get(c, n))
		}
	}
	out, err := json.MarshalIndent(sw, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWorkloadsEmitTheirMetrics runs every workload at toy size, untraced
// and traced, and checks the metrics each mode reports against the tables.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	ctx := context.Background()
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, m := range bf.PerLayer {
		known[m.Name] = true
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			window := time.Duration(0)
			if strings.HasPrefix(name, "serve") {
				window = 500 * time.Millisecond
			}
			run := func(traced bool) *report {
				d := toyRunner(t, name)
				if err := d.setup(ctx); err != nil {
					t.Fatal(err)
				}
				defer d.close()
				if _, ok := d.(*simRunner); ok {
					if err := d.warm(ctx); err != nil {
						t.Fatal(err)
					}
				}
				var rep *report
				var err error
				if traced {
					rep, err = d.trace(ctx, window, newTracer())
				} else {
					rep, err = d.measure(ctx, window)
				}
				if err != nil {
					t.Fatal(err)
				}
				if rep.attempted < 1 || rep.failed != 0 {
					t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				return rep
			}
			rep := run(false)
			for _, m := range bf.EndToEnd {
				if v := rep.metrics[m.Name]; m.Name != "setup_s" && !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			if len(rep.metrics) != len(bf.EndToEnd)-1 {
				t.Errorf("untraced run reported %v", sortedKeys(rep.metrics))
			}
			rep = run(true)
			for k := range rep.metrics {
				if !known[k] {
					t.Errorf("traced run reported %q, which BENCHMARK.json does not list", k)
				}
			}
			for _, k := range []string{"trace.op_ms_p50", "trace.overhead_share", "runtime.alloc_kb_per_op", "runtime.peak_rss_mb"} {
				if _, ok := rep.metrics[k]; !ok {
					t.Errorf("traced run did not report %s", k)
				}
			}
		})
	}
}

// TestCorruptGoldenFails flips one byte of the expected sweep output.
func TestCorruptGoldenFails(t *testing.T) {
	d := toyRunner(t, "sweep").(*simRunner)
	want := d.w.(*sweep).want
	want[len(want)/2] ^= 1
	if err := d.warm(context.Background()); err == nil {
		t.Error("a corrupted golden passed the check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

// TestCompare writes synthetic result sets and compares them under a 10%
// bound.
func TestCompare(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	spec := `{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	scaled := func(f float64, noise []float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
			if noise != nil {
				out[i] *= noise[i]
			}
		}
		return out
	}
	noisy := []float64{1.3, 0.7, 1.25, 0.75, 1.2, 0.8, 1.35, 0.65, 1.1, 0.9}
	noisy2 := []float64{0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.65, 1.35}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
		ok   bool
	}{
		{"20% slower", base, scaled(1.2, nil), "regressed", false},
		{"identical", base, base, "unchanged", true},
		{"overlapping noise", scaled(1, noisy), scaled(1, noisy2), "unresolved", false},
		{"20% faster", base, scaled(0.8, nil), "improved", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirA, dirB := t.TempDir(), t.TempDir()
			write := func(dir string, xs []float64) {
				for i, x := range xs {
					r := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"latency_p50_ms": {x, "ms"}}}
					b, _ := json.Marshal(r)
					sub := filepath.Join(dir, fmt.Sprintf("set-%02d", i))
					if err := os.MkdirAll(sub, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(sub, "sweep.json"), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(dirA, tc.a)
			write(dirB, tc.b)
			var out strings.Builder
			ok, err := runCompare(&out, bench, dirA, dirB)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
				t.Errorf("ok=%v, want %v; output:\n%s", ok, tc.ok, out.String())
			}
		})
	}
}
