// Package harness drives the paper's performance evaluation: it runs the
// SPEC CPU 2017 proxy benchmarks on every core configuration with a
// SMARTS-like sampling methodology (warm-up, then alternating measurement
// and skip intervals), aggregates the statistics each figure needs, and
// renders the tables and series of Fig. 7, Table 2/3, and Fig. 9a–e as
// text.
package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/inorder"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/stats"
	"nda/internal/workload"
)

// InOrderName is the configuration label of the in-order baseline.
const InOrderName = "In-Order"

// Config controls the sampling methodology. The defaults mirror the paper's
// SMARTS setup in miniature: warm the micro-architecture, then measure
// fixed instruction windows at intervals and report a CPI confidence
// interval across them.
type Config struct {
	WarmInsts    uint64
	MeasureInsts uint64
	SkipInsts    uint64
	Intervals    int
	MaxCycles    uint64 // per full benchmark run; guards runaway configs

	// UseCheckpoints switches Cell.Measure to checkpoint-based sampling
	// (see TakeSamples): the emulator fast-forwards between sampling points
	// instead of the timing core simulating the gaps.
	UseCheckpoints bool
	// CheckpointStride is the functional distance between sampling points;
	// 0 means 10x the warm+measure window.
	CheckpointStride uint64

	// Workers bounds the goroutines the sweep engine fans (policy,
	// workload) cells out over; 0 means one per available CPU. A cell's
	// samples run in order inside it. Every cell derives its inputs from
	// its tuple alone, so the results are bit-identical for any worker
	// count.
	Workers int

	Params   ooo.Params
	IOParams inorder.Params
}

// DefaultConfig returns the standard methodology: 20k warm-up, 8 intervals
// of 10k measured instructions separated by 10k skipped instructions.
func DefaultConfig() Config {
	return Config{
		WarmInsts:    20_000,
		MeasureInsts: 10_000,
		SkipInsts:    10_000,
		Intervals:    8,
		MaxCycles:    80_000_000,
		Params:       ooo.DefaultParams(),
		IOParams:     inorder.DefaultParams(),
	}
}

// Quick returns a reduced methodology for tests and smoke runs.
func Quick() Config {
	c := DefaultConfig()
	c.WarmInsts = 5_000
	c.MeasureInsts = 4_000
	c.SkipInsts = 2_000
	c.Intervals = 4
	return c
}

// Measurement aggregates one (benchmark, configuration) cell.
type Measurement struct {
	Workload string
	Config   string

	CPI stats.Summary // across measurement intervals

	// Aggregates over all measured intervals.
	Cycles    uint64
	Committed uint64
	MLP       float64
	ILP       float64
	D2I       float64 // mean dispatch->issue latency

	// Cycle breakdown fractions (Fig. 9a), of measured cycles.
	CommitFrac, MemFrac, BackendFrac, FrontendFrac float64

	// NDA bookkeeping.
	DeferredPerKilo float64 // deferred broadcasts per 1000 instructions
	MispredictRate  float64
}

// hugeIters makes benchmark loops effectively unbounded; the harness stops
// by instruction budget.
const hugeIters = 1 << 40

// MeasureOoOCtx measures one benchmark under one policy with continuous
// sampling, whatever cfg.UseCheckpoints says. The core polls ctx.Done()
// while it runs, so a timeout or job cancellation stops the simulation
// mid-interval rather than after the cell completes.
func MeasureOoOCtx(ctx context.Context, spec workload.Spec, pol core.Policy, cfg Config) (*Measurement, error) {
	cfg.UseCheckpoints = false
	return Cell{Spec: spec, Policy: pol}.Measure(ctx, cfg, nil)
}

// MeasureInOrderCtx is MeasureOoOCtx on the in-order core.
func MeasureInOrderCtx(ctx context.Context, spec workload.Spec, cfg Config) (*Measurement, error) {
	cfg.UseCheckpoints = false
	return Cell{Spec: spec, InOrder: true}.Measure(ctx, cfg, nil)
}

// Sweep is the full evaluation grid: every benchmark under every
// configuration (policies plus optionally the in-order core).
type Sweep struct {
	Workloads []string
	Configs   []string
	Cells     map[string]map[string]*Measurement // config -> workload -> cell
}

// NewSweep returns an empty grid with the given axes. Both the local sweep
// engine and the distributed merge path build their result through this
// and Set, so a fleet-assembled sweep has exactly the shape a local run
// produces.
func NewSweep(workloads, configs []string) *Sweep {
	return &Sweep{
		Workloads: append([]string(nil), workloads...),
		Configs:   append([]string(nil), configs...),
		Cells:     make(map[string]map[string]*Measurement),
	}
}

// Set stores one cell.
func (s *Sweep) Set(config, workload string, m *Measurement) {
	cells := s.Cells[config]
	if cells == nil {
		cells = make(map[string]*Measurement)
		s.Cells[config] = cells
	}
	cells[workload] = m
}

// Get returns one cell (nil if missing).
func (s *Sweep) Get(config, workload string) *Measurement {
	if m, ok := s.Cells[config]; ok {
		return m[workload]
	}
	return nil
}

// Baseline returns the insecure OoO measurement for a workload.
func (s *Sweep) Baseline(workload string) *Measurement {
	return s.Get(core.Baseline().Name, workload)
}

// NormalizedCPI returns config CPI / baseline-OoO CPI for a workload.
func (s *Sweep) NormalizedCPI(config, workload string) float64 {
	return normalized(s.cpi(config, workload))
}

// MeanNormalizedCPI averages NormalizedCPI over all workloads (the
// rightmost bars of Fig. 7 and the overhead column of Table 2).
func (s *Sweep) MeanNormalizedCPI(config string) float64 {
	return meanNormalized(len(s.Workloads), s.cpis(config))
}

// Overhead returns the average slowdown vs insecure OoO in percent.
func (s *Sweep) Overhead(config string) float64 {
	return OverheadOf(len(s.Workloads), s.cpis(config))
}

// cpi returns config's and the baseline's CPI on workload, (0, 0) when
// either cell is missing.
func (s *Sweep) cpi(config, workload string) (cfg, base float64) {
	b, m := s.Baseline(workload), s.Get(config, workload)
	if b == nil || m == nil {
		return 0, 0
	}
	return m.CPI.Mean, b.CPI.Mean
}

// cpis is cpi over the sweep's workloads, by index.
func (s *Sweep) cpis(config string) func(w int) (cfg, base float64) {
	return func(w int) (cfg, base float64) { return s.cpi(config, s.Workloads[w]) }
}

// OverheadOf is Table 2's overhead: the average slowdown vs insecure OoO,
// in percent, of a configuration over n workloads. cpi(w) gives the
// configuration's and the baseline's CPI on the w-th workload; workloads
// without a positive normalized CPI are left out of the average. Sweep
// and the service's response writer both compute it here.
func OverheadOf(n int, cpi func(w int) (cfg, base float64)) float64 {
	return (meanNormalized(n, cpi) - 1) * 100
}

// meanNormalized is stats.Mean of the positive normalized CPIs, summed in
// workload order.
func meanNormalized(n int, cpi func(w int) (cfg, base float64)) float64 {
	var sum float64
	k := 0
	for w := range n {
		if v := normalized(cpi(w)); v > 0 {
			sum += v
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// normalized is config CPI / baseline CPI, 0 without a baseline CPI.
func normalized(cfg, base float64) float64 {
	if base == 0 {
		return 0
	}
	return cfg / base
}

// Cell is one (workload, configuration) cell of the sweep grid: the
// workload under one policy on the OoO core, or on the in-order core.
type Cell struct {
	Spec    workload.Spec
	Policy  core.Policy // zero for the in-order core
	InOrder bool
}

// Config is the cell's column label in a Sweep: the policy's name, or
// InOrderName.
func (c Cell) Config() string {
	if c.InOrder {
		return InOrderName
	}
	return c.Policy.Name
}

// Grid lays out a sweep: its cells workload-major (for each workload, every
// policy in order, then the in-order core when inOrder is set) and the
// empty Sweep whose axes they fill. RunSweepCtx and the serving layer both
// build their tables from it, so a served sweep has exactly the shape of a
// local one.
func Grid(specs []workload.Spec, policies []core.Policy, inOrder bool) ([]Cell, *Sweep) {
	workloads := make([]string, 0, len(specs))
	configs := make([]string, 0, len(policies)+1)
	for _, pol := range policies {
		configs = append(configs, pol.Name)
	}
	if inOrder {
		configs = append(configs, InOrderName)
	}
	cells := make([]Cell, 0, len(specs)*len(configs))
	for _, spec := range specs {
		workloads = append(workloads, spec.Name)
		for _, pol := range policies {
			cells = append(cells, Cell{Spec: spec, Policy: pol})
		}
		if inOrder {
			cells = append(cells, Cell{Spec: spec, InOrder: true})
		}
	}
	return cells, NewSweep(workloads, configs)
}

// RunSweepCtx measures every benchmark under every policy (and, when
// includeInOrder is set, the in-order core), fanning the cells out over
// cfg.Workers goroutines. progress, if non-nil, receives one line per
// completed cell; it is called from at most one goroutine at a time, in
// completion order.
//
// Determinism: a cell's result depends only on its (policy, workload)
// tuple. Its workload's program and starting states (the loaded image, or
// the checkpoint series) are built from the workload alone and only read
// by its cells; every cell runs on a core Reset and resumed from those
// states, which leaves the core exactly as a fresh one, whatever it ran
// before; and results land in index-addressed slots. So the returned Sweep
// is bit-identical for any worker count.
//
// Cancellation: once ctx is done, no queued cell starts, in-flight cells
// and checkpoint fast-forwards stop mid-simulation, no further progress
// lines are emitted, and the ctx error is returned. Job errors from cells
// that ran take precedence.
func RunSweepCtx(ctx context.Context, specs []workload.Spec, policies []core.Policy, includeInOrder bool, cfg Config, progress func(string)) (*Sweep, error) {
	cells, sw := Grid(specs, policies, includeInOrder)
	var (
		progressMu sync.Mutex
		done       int
	)
	note := func(m *Measurement) {
		if progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		// Once the context is done the caller is tearing down (a timeout
		// fired or the job was cancelled); late cells finish silently so no
		// progress line races the caller's own output. Checking under the
		// lock makes that strict: a cancellation observed by one callback
		// suppresses every later one.
		if ctx.Err() != nil {
			return
		}
		done++
		progress(fmt.Sprintf("[%3d/%3d] %-18s %-14s CPI %s", done, len(cells), m.Config, m.Workload, m.CPI))
	}
	results, err := measureCells(ctx, cells, cfg, note)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		sw.Set(c.Config(), c.Spec.Name, results[i])
	}
	return sw, nil
}

// measureCells measures every cell under cfg over cfg.Workers goroutines,
// handing them out in order, and returns the measurements in cell order.
// done, if non-nil, is called from the cell's goroutine with each
// measurement as it completes.
//
// The cells of one workload (by name) share its series: the first of them
// to run builds it, and the last to finish drops it, so with the cells of
// a workload contiguous, as Grid lays them out, only the workloads in
// flight hold theirs. Each cell runs on the checkpoint.Cores of the pool
// worker running it.
func measureCells(ctx context.Context, cells []Cell, cfg Config, done func(*Measurement)) ([]*Measurement, error) {
	byName := make(map[string]*sharedSeries)
	shared := make([]*sharedSeries, len(cells))
	for i, c := range cells {
		sh := byName[c.Spec.Name]
		if sh == nil {
			sh = new(sharedSeries)
			byName[c.Spec.Name] = sh
		}
		sh.left.Add(1)
		shared[i] = sh
	}
	cores := make([]checkpoint.Cores, par.Workers(cfg.Workers))

	results := make([]*Measurement, len(cells))
	err := par.RunCtx(ctx, len(cells), len(cores), func(w, i int) error {
		sh := shared[i]
		ss, err := sh.get(ctx, cells[i].Spec, cfg)
		if err != nil {
			return err
		}
		m, err := cells[i].measure(ctx, cfg, ss, &cores[w])
		if err != nil {
			return err
		}
		sh.release()
		results[i] = m
		if done != nil {
			done(m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// sharedSeries is one workload's series in measureCells: built once by
// the first of the workload's cells to run, read by all of them, and
// dropped by the last to finish so its memory can be reclaimed mid-run.
type sharedSeries struct {
	once sync.Once
	ss   *SampleSeries
	err  error
	left atomic.Int64 // cells still to finish
}

// get returns the series, building it on first use.
func (sh *sharedSeries) get(ctx context.Context, spec workload.Spec, cfg Config) (*SampleSeries, error) {
	sh.once.Do(func() { sh.ss, sh.err = series(ctx, spec, cfg) })
	return sh.ss, sh.err
}

// release records one finished cell and drops the series after the last.
// Every cell reads the series before its own release, so the last release
// happens after every read.
func (sh *sharedSeries) release() {
	if sh.left.Add(-1) == 0 {
		sh.ss = nil
	}
}
