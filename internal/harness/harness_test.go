package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/mem"
	"nda/internal/ooo"
	"nda/internal/workload"
)

func tinyConfig() Config {
	c := Quick()
	c.WarmInsts = 2_000
	c.MeasureInsts = 2_000
	c.SkipInsts = 1_000
	c.Intervals = 3
	return c
}

func tinySpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	var out []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestMeasureOoO(t *testing.T) {
	s, _ := workload.ByName("exchange2")
	m, err := MeasureOoOCtx(context.Background(), s, core.Baseline(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.CPI.Mean <= 0 || m.CPI.N != 3 {
		t.Errorf("CPI = %+v", m.CPI)
	}
	// RunInsts may overshoot by up to CommitWidth-1 per interval.
	if m.Committed < 3*2000 || m.Committed > 3*2000+3*8 {
		t.Errorf("committed = %d", m.Committed)
	}
	sum := m.CommitFrac + m.MemFrac + m.BackendFrac + m.FrontendFrac
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown fractions sum to %.4f", sum)
	}
}

func TestMeasureInOrder(t *testing.T) {
	s, _ := workload.ByName("exchange2")
	m, err := MeasureInOrderCtx(context.Background(), s, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.CPI.Mean < 1 {
		t.Errorf("in-order CPI = %v, must be >= 1", m.CPI.Mean)
	}
	if m.ILP > 1.0001 || m.MLP > 1.0001 {
		t.Errorf("in-order ILP/MLP must be bounded by 1: %v %v", m.ILP, m.MLP)
	}
}

func TestSweepOrderingHolds(t *testing.T) {
	// The central performance claim on a small but discriminating
	// workload pair: baseline <= permissive <= full protection << in-order.
	specs := tinySpecs(t, "gcc", "xalancbmk")
	pols := []core.Policy{core.Baseline(), core.Permissive(), core.FullProtection()}
	sw, err := RunSweepCtx(context.Background(), specs, pols, true, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ooo := sw.MeanNormalizedCPI("OoO")
	perm := sw.MeanNormalizedCPI("Permissive")
	full := sw.MeanNormalizedCPI("FullProtection")
	inord := sw.MeanNormalizedCPI(InOrderName)
	if !(ooo <= perm && perm < full && full < inord) {
		t.Errorf("ordering violated: ooo=%.2f perm=%.2f full=%.2f inorder=%.2f", ooo, perm, full, inord)
	}
	// NDA must recover most of the in-order gap even at full protection.
	if closure := (inord - full) / (inord - ooo); closure < 0.5 {
		t.Errorf("full protection closes only %.0f%% of the gap", closure*100)
	}
}

func TestRenderers(t *testing.T) {
	specs := tinySpecs(t, "exchange2", "xz")
	pols := []core.Policy{core.Baseline(), core.Permissive()}
	sw, err := RunSweepCtx(context.Background(), specs, pols, true, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fig7 := RenderFig7(sw)
	if !strings.Contains(fig7, "exchange2") || !strings.Contains(fig7, "mean") {
		t.Errorf("fig7 output incomplete:\n%s", fig7)
	}
	t2 := RenderTable2(sw)
	if !strings.Contains(t2, "overhead") || !strings.Contains(t2, "Permissive") {
		t.Errorf("table2 output incomplete:\n%s", t2)
	}
	t3 := RenderTable3(ooo.DefaultParams())
	if !strings.Contains(t3, "192 ROB") || !strings.Contains(t3, "50ns") {
		t.Errorf("table3 output incomplete:\n%s", t3)
	}
	f9a := RenderFig9a(sw)
	if !strings.Contains(f9a, "commit") {
		t.Errorf("fig9a output incomplete:\n%s", f9a)
	}
	f9bcd := RenderFig9bcd(sw)
	if !strings.Contains(f9bcd, "MLP") {
		t.Errorf("fig9bcd output incomplete:\n%s", f9bcd)
	}
}

func TestFig5BTBPenalty(t *testing.T) {
	r, err := MeasureFig5(ooo.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Penalty() < 5 || r.Penalty() > 40 {
		t.Errorf("BTB mispredict penalty = %d cycles, expected on the order of ~16", r.Penalty())
	}
	if !strings.Contains(RenderFig5(r), "squash") {
		t.Error("fig5 render incomplete")
	}
}

func TestFig9eSensitivity(t *testing.T) {
	rs, err := RunFig9eCtx(context.Background(), "Permissive", []int{0, 1, 2}, []string{"gcc"}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].CPI <= 0 {
		t.Error("zero CPI")
	}
	// The paper's claim is that the impact of NDA wake-up logic latency is
	// small (<3.6% per cycle of delay); scheduling-order noise can swing
	// the tiny deltas either way, so assert the magnitude only.
	for _, r := range rs[1:] {
		if d := r.CPI/rs[0].CPI - 1; d < -0.10 || d > 0.15 {
			t.Errorf("%d-cycle delay changed CPI by %+.1f%%, implausibly large", r.Delay, d*100)
		}
	}
	if !strings.Contains(RenderFig9e(rs), "delay") {
		t.Error("fig9e render incomplete")
	}
}

func TestStatsHelpers(t *testing.T) {
	sw := &Sweep{Cells: map[string]map[string]*Measurement{}}
	if sw.Get("x", "y") != nil {
		t.Error("missing cell must be nil")
	}
	if sw.NormalizedCPI("x", "y") != 0 {
		t.Error("missing normalization must be 0")
	}
}

// TestRunSweepDeterministicAcrossWorkers is the parallel engine's central
// guarantee: one worker and eight workers must produce bit-identical Sweep
// tables — every cell, CI, and derived aggregate — in both continuous and
// checkpointed sampling modes.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	specs := tinySpecs(t, "gcc", "exchange2", "xz")
	pols := []core.Policy{core.Baseline(), core.Permissive(), core.FullProtection()}
	for _, checkpoints := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.UseCheckpoints = checkpoints

		cfg.Workers = 1
		serial, err := RunSweepCtx(context.Background(), specs, pols, true, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		var lines []string
		parallel, err := RunSweepCtx(context.Background(), specs, pols, true, cfg, func(s string) { lines = append(lines, s) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("checkpoints=%v: Workers=1 and Workers=8 sweeps differ", checkpoints)
		}
		if len(lines) != (len(pols)+1)*len(specs) {
			t.Errorf("checkpoints=%v: %d progress lines, want %d", checkpoints, len(lines), (len(pols)+1)*len(specs))
		}
		if g1, g8 := serial.MeanNormalizedCPI("FullProtection"), parallel.MeanNormalizedCPI("FullProtection"); g1 != g8 {
			t.Errorf("checkpoints=%v: geomean drifted: %v vs %v", checkpoints, g1, g8)
		}
	}
}

// TestSweepCellsMatchStandalone: a sweep worker runs cell after cell on
// one pair of cores, Reset and resumed for each, and takes a later cell's
// measurement from an earlier one when the later cell's shadow never
// diverged, while a standalone Cell.Measure builds its own cores and arms
// no shadows. Every cell of a sweep must equal its standalone measurement,
// in both sampling modes, at one worker (whose cores run every cell,
// switching workloads and between the OoO and in-order cores) and at three
// (whose cores each see a different mix). The workloads cover the three
// outcomes of elision: every OoO cell after the baseline a repeat
// (exchange2), some (deepsjeng, xz), none (gcc).
func TestSweepCellsMatchStandalone(t *testing.T) {
	specs := tinySpecs(t, "xz", "gcc", "exchange2", "deepsjeng")
	simulated := map[string]int{"xz": 7, "gcc": 9, "exchange2": 1, "deepsjeng": 7} // of 9 OoO cells
	pols := core.All()
	cells, _ := Grid(specs, pols, true)
	for _, checkpoints := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.UseCheckpoints = checkpoints
		want := make([]*Measurement, len(cells))
		for i, c := range cells {
			m, err := c.Measure(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m
		}
		for _, spec := range specs {
			own, _ := Grid([]workload.Spec{spec}, pols, false)
			if _, n, err := measureCells(context.Background(), own, cfg, nil); err != nil || n != simulated[spec.Name] {
				t.Errorf("checkpoints=%v %s: simulated %d of %d OoO cells (err %v), want %d",
					checkpoints, spec.Name, n, len(own), err, simulated[spec.Name])
			}
		}
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			sw, err := RunSweepCtx(context.Background(), specs, pols, true, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cells {
				if got := sw.Get(c.Config(), c.Spec.Name); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("checkpoints=%v workers=%d %s/%s: sweep measured %+v, standalone %+v",
						checkpoints, workers, c.Spec.Name, c.Config(), got, want[i])
				}
			}
		}
	}
}

// TestSweepSimulatesDistinctRuns pins how many OoO cells of the quick
// grid (every workload under every policy) the engine simulates in
// continuous mode: 123 of 207. TestSweepCellsMatchStandalone pins smaller
// grids in both modes. A change that loses the elision, or proves fewer
// runs identical, fails here.
func TestSweepSimulatesDistinctRuns(t *testing.T) {
	cells, _ := Grid(workload.SPEC(), core.All(), false)
	_, n, err := measureCells(context.Background(), cells, Quick(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 123 || len(cells) != 207 {
		t.Errorf("simulated %d of %d cells, want 123 of 207", n, len(cells))
	}
}

// TestShadowsEveryStart: in checkpoint mode a cell's diverged mask is the
// OR over its starts, so a later cell repeats it only if it repeats the
// run from every checkpoint. With these windows some of nab's policies
// decide like the baseline from every checkpoint but the second.
func TestShadowsEveryStart(t *testing.T) {
	spec := tinySpecs(t, "nab")[0]
	cfg := tinyConfig()
	cfg.UseCheckpoints = true
	cfg.WarmInsts, cfg.MeasureInsts, cfg.Intervals = 500, 500, 4
	ss, err := TakeSamples(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pols := core.All()
	shadows := make([]core.Rules, len(pols)-1)
	for i, pol := range pols[1:] {
		shadows[i] = core.Compile(pol.Gates)
	}
	base := Cell{Spec: spec, Policy: pols[0]}
	var or, last uint64
	for i := range ss.cps {
		one := &SampleSeries{prog: ss.prog, cps: ss.cps[i : i+1]}
		_, d, err := base.measure(context.Background(), cfg, one, new(checkpoint.Cores), shadows)
		if err != nil {
			t.Fatal(err)
		}
		or, last = or|d, d
	}
	if or == last {
		t.Fatalf("every shadow that diverged did so from the last checkpoint (%b); the input no longer tests the OR", or)
	}
	if _, d, err := base.measure(context.Background(), cfg, ss, new(checkpoint.Cores), shadows); err != nil || d != or {
		t.Errorf("diverged %b (err %v), want %b, the OR over the starts", d, err, or)
	}
}

// TestChains: a chain holds one workload's OoO cells at one broadcast
// delay, at most 65 of them. exchange2's OoO cells all repeat the
// baseline's run at any one delay, so each case simulates exactly one
// cell per chain, and every cell still equals its standalone measurement.
func TestChains(t *testing.T) {
	specs := tinySpecs(t, "exchange2", "gcc")
	at := func(pol core.Policy, d int) Cell {
		pol.ExtraBroadcastDelay = d
		return Cell{Spec: specs[0], Policy: pol}
	}
	copies := make([]Cell, 70)
	for i := range copies {
		copies[i] = at(core.Permissive(), 0)
	}
	for _, tc := range []struct {
		name      string
		cells     []Cell
		simulated int
	}{
		// Fig. 9e runs one policy at several delays: every cell runs.
		{"fig9e", fig9eCells(core.Permissive(), []int{0, 1, 2}, specs), 6},
		// A result is never taken across delays: one chain per delay.
		{"mixed delays", []Cell{
			at(core.Baseline(), 0), at(core.Permissive(), 1), at(core.Strict(), 0),
			at(core.Strict(), 1), at(core.FullProtection(), 2), at(core.Permissive(), 0),
		}, 3},
		// More cells than one core can shadow split into two chains.
		{"70 copies", copies, 2},
	} {
		cfg := tinyConfig()
		got, n, err := measureCells(context.Background(), tc.cells, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.simulated {
			t.Errorf("%s: simulated %d of %d cells, want %d", tc.name, n, len(tc.cells), tc.simulated)
		}
		for i, c := range tc.cells {
			want, err := c.Measure(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: cell %d (%s/%s, delay %d): engine measured %+v, standalone %+v",
					tc.name, i, c.Spec.Name, c.Config(), c.Policy.ExtraBroadcastDelay, got[i], want)
			}
		}
	}
}

// TestCancelMidChain: cancelling from the first completion of exchange2's
// chain, whose later cells are all repeats, hands no later cell to done
// and prints no progress line after the cancellation.
func TestCancelMidChain(t *testing.T) {
	specs := tinySpecs(t, "exchange2")
	cells, _ := Grid(specs, core.All(), false)
	for _, sweep := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls int
		note := func() {
			calls++
			cancel()
		}
		var err error
		if sweep {
			_, err = RunSweepCtx(ctx, specs, core.All(), false, tinyConfig(), func(string) { note() })
		} else {
			_, _, err = measureCells(ctx, cells, tinyConfig(), func(*Measurement) { note() })
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("sweep=%v: err = %v, want context.Canceled", sweep, err)
		}
		if calls != 1 {
			t.Errorf("sweep=%v: %d cells reported, want only the one that cancelled", sweep, calls)
		}
	}
}

// TestRunSweepErrorCancels: a measurement failure mid-sweep must stop the
// pool (no new cells start) and propagate the error to the caller.
func TestRunSweepErrorCancels(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxCycles = 1 // every cell blows its cycle budget during warm-up
	cfg.Workers = 4
	var progressed int
	sw, err := RunSweepCtx(context.Background(), tinySpecs(t, "gcc", "xz"), []core.Policy{core.Baseline(), core.Permissive()}, false, cfg,
		func(string) { progressed++ })
	if err == nil {
		t.Fatal("cycle-budget error must propagate out of the sweep")
	}
	if !strings.Contains(err.Error(), "warm-up") {
		t.Errorf("error lost its context: %v", err)
	}
	if sw != nil {
		t.Error("failed sweep must return a nil table")
	}
	if progressed != 0 {
		t.Errorf("%d cells reported progress despite every cell failing", progressed)
	}
}

// TestRunSweepCtxCancelledBeforeStart: a dead context yields the context's
// error immediately — no cells measure, no progress prints.
func TestRunSweepCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var progressed int
	sw, err := RunSweepCtx(ctx, tinySpecs(t, "gcc"), []core.Policy{core.Baseline()}, false, tinyConfig(),
		func(string) { progressed++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sw != nil {
		t.Error("cancelled sweep must return a nil table")
	}
	if progressed != 0 {
		t.Errorf("%d progress lines printed under a cancelled context", progressed)
	}
}

// TestRunSweepCtxCancelMidway: cancelling from the progress callback stops
// the sweep promptly — queued cells never start, in-flight cores bail out —
// and no further progress lines appear after the cancellation (the
// cancellation-safe progress contract the CLI drivers rely on).
func TestRunSweepCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tinyConfig()
	cfg.Workers = 2
	var after int
	var cancelled bool
	specs := tinySpecs(t, "gcc", "xz", "mcf", "exchange2")
	sw, err := RunSweepCtx(ctx, specs, core.All(), true, cfg, func(string) {
		if cancelled {
			after++
			return
		}
		cancelled = true
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sw != nil {
		t.Error("cancelled sweep must return a nil table")
	}
	if after != 0 {
		t.Errorf("%d progress lines printed after cancellation", after)
	}
}

// TestMeasureOoOCtxCancelled: the per-measurement entry point honors a dead
// context too (it is what the serve cache calls directly).
func TestMeasureOoOCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, _ := workload.ByName("gcc")
	if _, err := MeasureOoOCtx(ctx, s, core.Baseline(), tinyConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCheckpointedSamplingAgrees(t *testing.T) {
	// Continuous and checkpoint-based sampling measure the same workload
	// under the same policy; the CPIs must land in the same ballpark.
	s, _ := workload.ByName("exchange2")
	cfg := tinyConfig()
	cont, err := MeasureOoOCtx(context.Background(), s, core.Baseline(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseCheckpoints = true
	cfg.CheckpointStride = 20_000
	ckpt, err := Cell{Spec: s, Policy: core.Baseline()}.Measure(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.CPI.Mean < cont.CPI.Mean*0.7 || ckpt.CPI.Mean > cont.CPI.Mean*1.3 {
		t.Errorf("checkpointed CPI %.3f vs continuous %.3f: methodologies disagree",
			ckpt.CPI.Mean, cont.CPI.Mean)
	}
	io, err := Cell{Spec: s, InOrder: true}.Measure(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if io.CPI.Mean <= ckpt.CPI.Mean {
		t.Error("in-order must be slower")
	}
}

func TestCheckpointedSweep(t *testing.T) {
	cfg := tinyConfig()
	cfg.UseCheckpoints = true
	sw, err := RunSweepCtx(context.Background(), tinySpecs(t, "xz"), []core.Policy{core.Baseline(), core.FullProtection()}, true, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sw.MeanNormalizedCPI("FullProtection") < 1.0 {
		t.Errorf("full protection normalized CPI = %.2f", sw.MeanNormalizedCPI("FullProtection"))
	}
}

// TestFig9eIgnoresCheckpoints: RunFig9eCtx samples continuously, so the
// -checkpoints configuration gives the same points as the plain one.
func TestFig9eIgnoresCheckpoints(t *testing.T) {
	cfg := tinyConfig()
	want, err := RunFig9eCtx(context.Background(), "Permissive", []int{0, 1}, []string{"gcc"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseCheckpoints = true
	got, err := RunFig9eCtx(context.Background(), "Permissive", []int{0, 1}, []string{"gcc"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("with checkpoints %+v, without %+v", got, want)
	}
}

// TestMeasureTakesSeriesWhenNil: in checkpoint mode a cell given no series
// takes its own and measures exactly what it measures from TakeSamples'
// series, on both cores.
func TestMeasureTakesSeriesWhenNil(t *testing.T) {
	s, _ := workload.ByName("xz")
	cfg := tinyConfig()
	cfg.UseCheckpoints = true
	ss, err := TakeSamples(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Cell{{Spec: s, Policy: core.StrictBR()}, {Spec: s, InOrder: true}} {
		want, err := c.Measure(context.Background(), cfg, ss)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Measure(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: nil series measured %+v, TakeSamples' series %+v", c.Config(), got, want)
		}
		if got.CPI.N != cfg.Intervals {
			t.Errorf("%s: %d samples, want %d", c.Config(), got.CPI.N, cfg.Intervals)
		}
	}
}

// TestTakeSamplesCancelled: the checkpoint fast-forward stops soon after
// its context is cancelled, even with a warm-up it would take hours to
// run.
func TestTakeSamplesCancelled(t *testing.T) {
	s, _ := workload.ByName("gcc")
	cfg := tinyConfig()
	cfg.UseCheckpoints = true
	cfg.WarmInsts = 1_000_000_000_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := time.AfterFunc(50*time.Millisecond, cancel)
	defer stop.Stop()
	start := time.Now()
	_, err := Cell{Spec: s, Policy: core.Baseline()}.Measure(ctx, cfg, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled fast-forward returned after %v", d)
	}
}

// TestSeriesWithinBudget: the standard and quick checkpoint series of
// every workload fit checkpoint.SeriesBudget (the largest, mcf's standard
// series, holds 17,408 pages of the budget's 262,144), so the budget
// refuses only requests far beyond the methodology's own.
func TestSeriesWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("takes every workload's standard series")
	}
	for _, cfg := range []Config{DefaultConfig(), Quick()} {
		for _, spec := range workload.All() {
			ss, err := TakeSamples(context.Background(), spec, cfg)
			if err != nil {
				t.Fatalf("%s, %d intervals: %v", spec.Name, cfg.Intervals, err)
			}
			pages := 0
			for _, cp := range ss.cps {
				pages += cp.Mem.MappedPages()
			}
			if bytes := pages * mem.PageSize; bytes > checkpoint.SeriesBudget {
				t.Errorf("%s, %d intervals: series holds %d bytes, above the %d-byte budget", spec.Name, cfg.Intervals, bytes, checkpoint.SeriesBudget)
			}
		}
	}
}
