package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nda/internal/core"
	"nda/internal/diffuzz"
	"nda/internal/gadget"
	"nda/internal/harness"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/progen"
	"nda/internal/workload"
)

// simWorkload is a simulation workload: a fixed unit of work (a rep) whose
// output is checked, run through its public entry point or, traced, through
// the benchmark's own fan-out with a span around each op.
type simWorkload interface {
	prepare() error
	ops() int // cells or programs per rep
	// run does one rep through the public entry point and returns its output.
	run(ctx context.Context) ([]byte, error)
	// runTraced does the same rep with a span per op; its output must be
	// byte-identical.
	runTraced(ctx context.Context, tr *tracer) ([]byte, error)
	check(out []byte) error
	// spans names the op spans runTraced records; the first is the op.
	spans() []string
	// breakdown times the layers below the ops by calling them directly,
	// and fills the layer metrics. perRep is the op busy time of one
	// traced rep.
	breakdown(ctx context.Context, tr *tracer, perRep float64, m, detail map[string]float64) error
}

// minReps is the fewest measured reps a run reports a median over.
const minReps = 3

// simRunner runs a simWorkload: one warm-up rep, then at least minReps
// reps inside the window. Every rep's output must equal the warm-up rep's.
type simRunner struct {
	w     simWorkload
	first []byte
}

func (d *simRunner) setup(context.Context) error { return d.w.prepare() }
func (d *simRunner) close()                      {}

func (d *simRunner) warm(ctx context.Context) error {
	out, err := d.rep(ctx, nil)
	d.first = out
	return err
}

// rep runs the workload once, traced when tr is non-nil, and checks it.
func (d *simRunner) rep(ctx context.Context, tr *tracer) ([]byte, error) {
	var out []byte
	var err error
	if tr == nil {
		out, err = d.w.run(ctx)
	} else {
		out, err = d.w.runTraced(ctx, tr)
	}
	if err != nil {
		return nil, err
	}
	if err := d.w.check(out); err != nil {
		return nil, err
	}
	if d.first != nil && !bytes.Equal(out, d.first) {
		return nil, errors.New("output differs from the warm-up rep")
	}
	return out, nil
}

// measure runs reps while the next one, taking the median rep time, ends
// inside the window, so a run lasts about window whatever the rep length.
func (d *simRunner) measure(ctx context.Context, window time.Duration) (*report, error) {
	var times []float64
	start := time.Now()
	for len(times) < minReps || time.Since(start).Seconds()+median(times) <= window.Seconds() {
		t0 := time.Now()
		if _, err := d.rep(ctx, nil); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	n := float64(d.w.ops())
	return &report{
		attempted: int64(d.w.ops() * len(times)),
		metrics: map[string]float64{
			"ops_per_s":      n / median(times),
			"latency_p50_ms": median(times) * 1000,
		},
	}, nil
}

// trace alternates untraced and traced reps until the window has passed;
// their difference is the tracing overhead. The runtime metrics cover the
// untraced reps only.
func (d *simRunner) trace(ctx context.Context, window time.Duration, tr *tracer) (*report, error) {
	var plain, traced []float64
	var rt runtimeSample
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds()+median(plain)+median(traced) <= window.Seconds() {
		before := readRuntime()
		t0 := time.Now()
		if _, err := d.rep(ctx, nil); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(t0).Seconds())
		rt = rt.plus(readRuntime().minus(before))

		t0 = time.Now()
		if _, err := d.rep(ctx, tr); err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(t0).Seconds())
	}
	n := d.w.ops()
	ops := int64(n * len(plain))
	m := map[string]float64{}
	lat := tr.seconds(d.w.spans()[0])
	m["trace.op_ms_p50"] = percentile(lat, 0.50) * 1000
	m["trace.op_ms_p95"] = percentile(lat, 0.95) * 1000
	m["trace.overhead_share"] = median(traced)/median(plain) - 1
	busy := tr.busy(d.w.spans()...)
	m["par.util"] = busy / (workers * sum(traced))
	runtimeMetrics(m, rt, ops)
	detail := map[string]float64{
		"rep_s_untraced": median(plain),
		"rep_s_traced":   median(traced),
		"op_busy_s":      busy / float64(len(traced)),
	}
	if err := d.w.breakdown(ctx, tr, busy/float64(len(traced)), m, detail); err != nil {
		return nil, err
	}
	return &report{attempted: ops + int64(n*len(traced)), metrics: m, detail: detail}, nil
}

// shares sets each layer metric to its spans' busy time over perRep.
func shares(tr *tracer, perRep float64, m map[string]float64, layers map[string][]string) {
	for metric, names := range layers {
		m[metric] = tr.busy(names...) / perRep
	}
}

// busySeconds records the busy time of each span name that occurred.
func busySeconds(tr *tracer, detail map[string]float64, names ...string) {
	for _, n := range names {
		if b := tr.busy(n); b > 0 {
			detail[n+"_s"] = b
		}
	}
}

// hugeIters is the loop count the harness builds workload programs with:
// the programs never halt, and the harness stops by instruction budget.
const hugeIters = 1 << 40

// sweep is the Fig. 7 grid: every workload under every policy and the
// in-order core.
type sweep struct {
	specs  []workload.Spec
	pols   []core.Policy
	cfg    harness.Config
	golden string // path of the expected output, read by prepare
	want   []byte // expected output
}

func newSweep(root string) *sweep {
	s := &sweep{specs: workload.SPEC(), pols: core.All(), cfg: harness.Quick(),
		golden: filepath.Join(root, "testdata", "golden", "sweep_quick.json")}
	s.cfg.Workers = workers
	return s
}

func (s *sweep) prepare() error {
	if s.golden == "" {
		return nil // the test set want itself
	}
	b, err := os.ReadFile(s.golden)
	s.want = b
	return err
}

func (s *sweep) ops() int { return len(s.specs) * (len(s.pols) + 1) }

func (s *sweep) spans() []string { return []string{"harness.cell"} }

func (s *sweep) run(ctx context.Context) ([]byte, error) {
	sw, err := harness.RunSweepCtx(ctx, s.specs, s.pols, true, s.cfg, nil)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(sw, "", "  ")
}

func (s *sweep) check(out []byte) error {
	if !bytes.Equal(out, s.want) {
		return fmt.Errorf("sweep output differs from %s", s.golden)
	}
	return nil
}

// sweepCell is one (workload, configuration) cell, in RunSweep's
// workload-major order.
type sweepCell struct {
	spec    workload.Spec
	specIdx int
	pol     core.Policy
	inOrder bool
}

func (c sweepCell) config() string {
	if c.inOrder {
		return harness.InOrderName
	}
	return c.pol.Name
}

func (c sweepCell) id() string { return c.spec.Name + "/" + c.config() }

func (s *sweep) cells() []sweepCell {
	var cells []sweepCell
	for si, spec := range s.specs {
		for _, pol := range s.pols {
			cells = append(cells, sweepCell{spec: spec, specIdx: si, pol: pol})
		}
		cells = append(cells, sweepCell{spec: spec, specIdx: si, inOrder: true})
	}
	return cells
}

// runTraced does what RunSweepCtx does, one public harness call per span.
func (s *sweep) runTraced(ctx context.Context, tr *tracer) ([]byte, error) {
	cells := s.cells()
	results := make([]*harness.Measurement, len(cells))
	err := par.RunCtx(ctx, len(cells), workers, func(i int) error {
		return tr.call("harness.cell", cells[i].id(), -1, func() (err error) {
			results[i], err = s.measure(ctx, cells[i])
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	var names, configs []string
	for _, spec := range s.specs {
		names = append(names, spec.Name)
	}
	for _, pol := range s.pols {
		configs = append(configs, pol.Name)
	}
	sw := harness.NewSweep(names, append(configs, harness.InOrderName))
	for i, c := range cells {
		sw.Set(c.config(), c.spec.Name, results[i])
	}
	return json.MarshalIndent(sw, "", "  ")
}

// measure runs one cell through the harness call RunSweepCtx makes for it.
func (s *sweep) measure(ctx context.Context, c sweepCell) (*harness.Measurement, error) {
	cfg := s.cfg
	cfg.Workers = 1 // the cells fill the pool, so a cell's samples run serially
	if c.inOrder {
		return harness.MeasureInOrderCtx(ctx, c.spec, cfg)
	}
	return harness.MeasureOoOCtx(ctx, c.spec, c.pol, cfg)
}

// replayCounts is what the phase replay adds up.
type replayCounts struct {
	cycles, insts uint64 // measured intervals, every cell
	oooCycles     uint64 // every cycle the out-of-order cores ran
}

func (a *replayCounts) add(b replayCounts) {
	a.cycles += b.cycles
	a.insts += b.insts
	a.oooCycles += b.oooCycles
}

var sweepPhases = []string{
	"workload.build", "ooo.new", "ooo.warm", "ooo.measure", "ooo.skip",
	"inorder.new", "inorder.warm", "inorder.measure", "inorder.skip",
}

// breakdown runs every cell through the harness again, each call followed
// at once by its replay through the calls the harness makes — Spec.Build,
// the core constructors and RunInsts per phase — with a span per call.
// Pairing each call with its replay exposes both to the same host
// conditions. The replay's measured-interval cycle and instruction sums
// must equal the harness's exactly.
func (s *sweep) breakdown(ctx context.Context, tr *tracer, _ float64, m, detail map[string]float64) error {
	var total replayCounts
	var mu sync.Mutex
	cells := s.cells()
	perSpec := len(s.pols) + 1
	err := par.RunCtx(ctx, len(s.specs), workers, func(si int) error {
		var cnt, got replayCounts // replayed, and measured by the harness
		for _, c := range cells[si*perSpec : (si+1)*perSpec] {
			var meas *harness.Measurement
			if err := tr.call("harness.paired_cell", c.id(), -1, func() (err error) {
				meas, err = s.measure(ctx, c)
				return err
			}); err != nil {
				return err
			}
			got.cycles += meas.Cycles
			got.insts += meas.Committed
			r, err := s.replayCell(tr, c)
			if err != nil {
				return err
			}
			cnt.add(r)
		}
		if cnt.cycles != got.cycles || cnt.insts != got.insts {
			return fmt.Errorf("%s: the phase replay counted %d cycles / %d instructions, the harness measured %d / %d",
				s.specs[si].Name, cnt.cycles, cnt.insts, got.cycles, got.insts)
		}
		mu.Lock()
		total.add(cnt)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	paired := tr.busy("harness.paired_cell")
	m["ooo.sim_cycles"] = float64(total.cycles)
	m["ooo.sim_insts"] = float64(total.insts)
	shares(tr, paired, m, map[string][]string{
		"workload.share":    {"workload.build"},
		"ooo.new_share":     {"ooo.new"},
		"ooo.warm_share":    {"ooo.warm"},
		"ooo.measure_share": {"ooo.measure"},
		"ooo.skip_share":    {"ooo.skip"},
		"inorder.share":     {"inorder.new", "inorder.warm", "inorder.measure", "inorder.skip"},
	})
	m["harness.residual_share"] = 1 - tr.busy(sweepPhases...)/paired
	if run := tr.busy("ooo.warm", "ooo.measure", "ooo.skip"); run > 0 {
		m["ooo.mcycles_per_s"] = float64(total.oooCycles) / run / 1e6
		detail["ooo.host_ns_per_cycle"] = run * 1e9 / float64(total.oooCycles)
	}
	cellMS := tr.seconds("harness.cell")
	detail["harness.cell_ms_p50"] = percentile(cellMS, 0.50) * 1000
	detail["harness.cell_ms_p95"] = percentile(cellMS, 0.95) * 1000
	detail["harness.paired_s"] = paired
	busySeconds(tr, detail, sweepPhases...)
	return nil
}

// phases records each call of one replayed cell as a child of its span.
type phases struct {
	tr     *tracer
	id     string
	parent int
}

func (p phases) call(name string, f func() error) error { return p.tr.call(name, p.id, p.parent, f) }

// replayCell replays MeasureOoOCtx or MeasureInOrderCtx.
func (s *sweep) replayCell(tr *tracer, c sweepCell) (cnt replayCounts, err error) {
	parent := tr.begin("replay.cell", c.id(), -1)
	defer tr.end(parent)
	p := phases{tr, c.id(), parent}
	cfg := s.cfg
	var prog *isa.Program
	_ = p.call("workload.build", func() error { prog = c.spec.Build(hugeIters); return nil })
	if c.inOrder {
		var mc *inorder.Machine
		_ = p.call("inorder.new", func() error { mc = inorder.NewFromProgram(prog, cfg.IOParams); return nil })
		return cnt, replayIntervals(p, "inorder", cfg, func(n uint64) error { return mc.RunInsts(n) },
			mc.ResetStats, func() (uint64, uint64) { return mc.Stats().Cycles, mc.Stats().Committed }, &cnt)
	}
	var oc *ooo.Core
	_ = p.call("ooo.new", func() error { oc = ooo.NewFromProgram(prog, c.pol, cfg.Params); return nil })
	err = replayIntervals(p, "ooo", cfg, func(n uint64) error { return oc.RunInsts(n, cfg.MaxCycles) },
		oc.ResetStats, func() (uint64, uint64) { return oc.Stats().Cycles, oc.Stats().Committed }, &cnt)
	cnt.oooCycles = oc.Cycles()
	return cnt, err
}

// replayIntervals runs the warm-up and the alternating measured and skipped
// intervals, as MeasureOoOCtx and MeasureInOrderCtx do.
func replayIntervals(p phases, layer string, cfg harness.Config, run func(uint64) error,
	reset func(), stats func() (cycles, insts uint64), cnt *replayCounts) error {
	if err := p.call(layer+".warm", func() error { return run(cfg.WarmInsts) }); err != nil {
		return err
	}
	for i := 0; i < cfg.Intervals; i++ {
		if err := p.call(layer+".measure", func() error { reset(); return run(cfg.MeasureInsts) }); err != nil {
			return err
		}
		cyc, insts := stats()
		cnt.cycles += cyc
		cnt.insts += insts
		if i < cfg.Intervals-1 && cfg.SkipInsts > 0 {
			if err := p.call(layer+".skip", func() error { reset(); return run(cfg.SkipInsts) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// fuzzPrograms is how many generated programs one fuzz rep checks.
const fuzzPrograms = 400

// fuzz is the differential soundness checker over generated programs.
type fuzz struct {
	seeds []int64
}

// newFuzz draws n consecutive program seeds from the workload seed.
func newFuzz(seed int64, n int) *fuzz { return &fuzz{seeds: diffuzz.Seeds(seed*10_000, n)} }

func (f *fuzz) prepare() error { return nil }
func (f *fuzz) ops() int       { return len(f.seeds) }
func (f *fuzz) spans() []string {
	return []string{"diffuzz.program"}
}

func (f *fuzz) run(context.Context) ([]byte, error) {
	return encodeSummary(diffuzz.Fuzz(f.seeds, workers))
}

// encodeSummary fails on any failed program or unsound verdict.
func encodeSummary(s *diffuzz.Summary) ([]byte, error) {
	if s.Failed > 0 {
		return nil, fmt.Errorf("%d of %d programs failed: %v", s.Failed, s.Programs, s.Failures)
	}
	for _, c := range s.Policies {
		if c.Unsound > 0 {
			return nil, fmt.Errorf("%d unsound verdicts under %s", c.Unsound, c.Policy)
		}
	}
	return json.Marshal(s)
}

func (f *fuzz) check([]byte) error { return nil } // encodeSummary checked it

func (f *fuzz) runTraced(ctx context.Context, tr *tracer) ([]byte, error) {
	results := make([]*diffuzz.Result, len(f.seeds))
	err := par.RunCtx(ctx, len(f.seeds), workers, func(i int) error {
		return tr.call("diffuzz.program", fmt.Sprint(f.seeds[i]), -1, func() error {
			results[i] = diffuzz.RunSeed(f.seeds[i])
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return encodeSummary(diffuzz.Summarize(results))
}

// breakdown times generation and static analysis as separate calls beside
// each program; the rest is the dynamic check, emulator and timing runs.
func (f *fuzz) breakdown(ctx context.Context, tr *tracer, perRep float64, m, detail map[string]float64) error {
	err := par.RunCtx(ctx, len(f.seeds), workers, func(i int) error {
		id := fmt.Sprint(f.seeds[i])
		var p *progen.Program
		if err := tr.call("progen.gen", id, -1, func() (err error) {
			p, err = progen.Gen(f.seeds[i])
			return err
		}); err != nil {
			return err
		}
		return tr.call("gadget.analyze", id, -1, func() error { gadget.Analyze(p.Prog, gadget.Config{}); return nil })
	})
	if err != nil {
		return err
	}
	shares(tr, perRep, m, map[string][]string{
		"progen.share": {"progen.gen"},
		"gadget.share": {"gadget.analyze"},
	})
	m["diffuzz.share"] = 1 - m["progen.share"] - m["gadget.share"]
	progMS := tr.seconds("diffuzz.program")
	detail["diffuzz.program_ms_p50"] = percentile(progMS, 0.50) * 1000
	detail["diffuzz.program_ms_p95"] = percentile(progMS, 0.95) * 1000
	detail["diffuzz.dynamic_s"] = perRep - tr.busy("progen.gen", "gadget.analyze")
	busySeconds(tr, detail, "progen.gen", "gadget.analyze")
	return nil
}
