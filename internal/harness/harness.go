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

	// UseCheckpoints switches RunSweep to checkpoint-based sampling (see
	// MeasureOoOCheckpointed): the emulator fast-forwards between sampling
	// points instead of the timing core simulating the gaps.
	UseCheckpoints bool
	// CheckpointStride is the functional distance between sampling points;
	// 0 means 10x the warm+measure window.
	CheckpointStride uint64

	// Workers bounds the goroutines the sweep engine fans (policy,
	// workload, sample) jobs out over; 0 means one per available CPU.
	// Every job derives its inputs from its tuple alone, so the results
	// are bit-identical for any worker count.
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

// workerCount resolves Config.Workers (0 = one per CPU).
func (c Config) workerCount() int { return par.Workers(c.Workers) }

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

// ctxErr prefers the context's error once the context is done: the cores
// surface cancellation as ooo.ErrCancelled, but callers want the standard
// context.Canceled / context.DeadlineExceeded identity back.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// MeasureOoO runs one benchmark under one policy.
func MeasureOoO(spec workload.Spec, pol core.Policy, cfg Config) (*Measurement, error) {
	return MeasureOoOCtx(context.Background(), spec, pol, cfg)
}

// MeasureOoOCtx is MeasureOoO with cancellation: the core polls ctx.Done()
// while it runs, so a timeout or job cancellation stops the simulation
// mid-interval rather than after the cell completes.
func MeasureOoOCtx(ctx context.Context, spec workload.Spec, pol core.Policy, cfg Config) (*Measurement, error) {
	prog := spec.Build(hugeIters)
	c := ooo.NewFromProgram(prog, pol, cfg.Params)
	c.Cancel = ctx.Done()
	if err := c.RunInsts(cfg.WarmInsts, cfg.MaxCycles); err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("harness: %s/%s warm-up: %w", spec.Name, pol.Name, err))
	}

	m := &Measurement{Workload: spec.Name, Config: pol.Name}
	var cpis []float64
	var agg ooo.Stats
	for i := 0; i < cfg.Intervals; i++ {
		c.ResetStats()
		if err := c.RunInsts(cfg.MeasureInsts, cfg.MaxCycles); err != nil {
			return nil, ctxErr(ctx, fmt.Errorf("harness: %s/%s interval %d: %w", spec.Name, pol.Name, i, err))
		}
		s := *c.Stats()
		cpis = append(cpis, s.CPI())
		addStats(&agg, s)
		if i < cfg.Intervals-1 && cfg.SkipInsts > 0 {
			c.ResetStats()
			if err := c.RunInsts(cfg.SkipInsts, cfg.MaxCycles); err != nil {
				return nil, ctxErr(ctx, fmt.Errorf("harness: %s/%s skip %d: %w", spec.Name, pol.Name, i, err))
			}
		}
	}
	m.CPI = stats.Summarize(cpis)
	fillFromStats(m, &agg)
	return m, nil
}

// MeasureInOrder runs one benchmark on the in-order core.
func MeasureInOrder(spec workload.Spec, cfg Config) (*Measurement, error) {
	return MeasureInOrderCtx(context.Background(), spec, cfg)
}

// MeasureInOrderCtx is MeasureInOrder with cancellation (see MeasureOoOCtx).
func MeasureInOrderCtx(ctx context.Context, spec workload.Spec, cfg Config) (*Measurement, error) {
	prog := spec.Build(hugeIters)
	c := inorder.NewFromProgram(prog, cfg.IOParams)
	c.Cancel = ctx.Done()
	if err := c.RunInsts(cfg.WarmInsts); err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("harness: %s/in-order warm-up: %w", spec.Name, err))
	}
	m := &Measurement{Workload: spec.Name, Config: InOrderName}
	var cpis []float64
	var cycles, committed uint64
	var mlpSum, mlpCyc, ilpSum, ilpCyc uint64
	for i := 0; i < cfg.Intervals; i++ {
		c.ResetStats()
		if err := c.RunInsts(cfg.MeasureInsts); err != nil {
			return nil, ctxErr(ctx, err)
		}
		s := c.Stats()
		cpis = append(cpis, s.CPI())
		cycles += s.Cycles
		committed += s.Committed
		mlpSum += s.MLPSum
		mlpCyc += s.MLPCycles
		ilpSum += s.ILPSum
		ilpCyc += s.ILPCycles
		if i < cfg.Intervals-1 && cfg.SkipInsts > 0 {
			c.ResetStats()
			if err := c.RunInsts(cfg.SkipInsts); err != nil {
				return nil, ctxErr(ctx, err)
			}
		}
	}
	m.CPI = stats.Summarize(cpis)
	m.Cycles, m.Committed = cycles, committed
	if mlpCyc > 0 {
		m.MLP = float64(mlpSum) / float64(mlpCyc)
	}
	if ilpCyc > 0 {
		m.ILP = float64(ilpSum) / float64(ilpCyc)
	}
	// The whole cycle is "commit" from the blocking core's perspective.
	m.CommitFrac = 1
	return m, nil
}

// addStats folds one measurement interval into an aggregate. src is a value
// snapshot, never a pointer into a live core: Core.Stats returns the core's
// internal counter block, which keeps mutating as the core runs, so
// aggregating through the alias would tie the fold to simulation timing.
func addStats(dst *ooo.Stats, src ooo.Stats) {
	dst.Cycles += src.Cycles
	dst.Committed += src.Committed
	dst.CommitCycles += src.CommitCycles
	dst.MemStallCycles += src.MemStallCycles
	dst.BackendStalls += src.BackendStalls
	dst.FrontendStalls += src.FrontendStalls
	dst.MLPSum += src.MLPSum
	dst.MLPCycles += src.MLPCycles
	dst.ILPSum += src.ILPSum
	dst.ILPCycles += src.ILPCycles
	dst.DispatchToIssueSum += src.DispatchToIssueSum
	dst.DispatchToIssueCount += src.DispatchToIssueCount
	dst.DeferredBroadcasts += src.DeferredBroadcasts
	dst.DeferralCycles += src.DeferralCycles
	dst.BranchesResolved += src.BranchesResolved
	dst.Mispredicts += src.Mispredicts
}

func fillFromStats(m *Measurement, s *ooo.Stats) {
	m.Cycles, m.Committed = s.Cycles, s.Committed
	m.MLP = s.MLP()
	m.ILP = s.ILP()
	m.D2I = s.DispatchToIssue()
	if s.Cycles > 0 {
		total := float64(s.Cycles)
		m.CommitFrac = float64(s.CommitCycles) / total
		m.MemFrac = float64(s.MemStallCycles) / total
		m.BackendFrac = float64(s.BackendStalls) / total
		m.FrontendFrac = float64(s.FrontendStalls) / total
	}
	if s.Committed > 0 {
		m.DeferredPerKilo = 1000 * float64(s.DeferredBroadcasts) / float64(s.Committed)
	}
	m.MispredictRate = s.MispredictRate()
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
	base := s.Baseline(workload)
	m := s.Get(config, workload)
	if base == nil || m == nil || base.CPI.Mean == 0 {
		return 0
	}
	return m.CPI.Mean / base.CPI.Mean
}

// MeanNormalizedCPI averages NormalizedCPI over all workloads (the
// rightmost bars of Fig. 7 and the overhead column of Table 2).
func (s *Sweep) MeanNormalizedCPI(config string) float64 {
	var xs []float64
	for _, w := range s.Workloads {
		if v := s.NormalizedCPI(config, w); v > 0 {
			xs = append(xs, v)
		}
	}
	return stats.Mean(xs)
}

// Overhead returns the average slowdown vs insecure OoO in percent.
func (s *Sweep) Overhead(config string) float64 {
	return (s.MeanNormalizedCPI(config) - 1) * 100
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

// Measure runs the cell under cfg. In checkpoint mode (cfg.UseCheckpoints)
// it samples from ss, the workload's series from TakeSamples; otherwise ss
// is unused and the cell simulates continuously.
func (c Cell) Measure(ctx context.Context, cfg Config, ss *SampleSeries) (*Measurement, error) {
	switch {
	case cfg.UseCheckpoints && c.InOrder:
		return MeasureInOrderSamples(ctx, c.Spec, cfg, ss)
	case cfg.UseCheckpoints:
		return MeasureOoOSamples(ctx, c.Spec, c.Policy, cfg, ss)
	case c.InOrder:
		return MeasureInOrderCtx(ctx, c.Spec, cfg)
	default:
		return MeasureOoOCtx(ctx, c.Spec, c.Policy, cfg)
	}
}

// Grid lays out a sweep: its cells workload-major (for each workload, every
// policy in order, then the in-order core when inOrder is set) and the
// empty Sweep whose axes they fill. RunSweepCtx and the serving layer both
// build their tables from it, so a served sweep has exactly the shape of a
// local one.
func Grid(specs []workload.Spec, policies []core.Policy, inOrder bool) ([]Cell, *Sweep) {
	var workloads, configs []string
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

// RunSweep measures every benchmark under every policy (and, when
// includeInOrder is set, the in-order core), fanning the cells out over
// cfg.Workers goroutines. progress, if non-nil, receives one line per
// completed cell; it is called from at most one goroutine at a time, in
// completion order.
//
// Determinism: every cell simulation derives all of its state from its
// (policy, workload) tuple — fresh program, memory image, core, and
// checkpoint series — and results land in index-addressed slots, so the
// returned Sweep is bit-identical for any worker count.
func RunSweep(specs []workload.Spec, policies []core.Policy, includeInOrder bool, cfg Config, progress func(string)) (*Sweep, error) {
	return RunSweepCtx(context.Background(), specs, policies, includeInOrder, cfg, progress)
}

// RunSweepCtx is RunSweep with cancellation: once ctx is done, no queued
// cell starts, in-flight cells stop mid-simulation (the cores poll
// ctx.Done()), no further progress lines are emitted, and the ctx error is
// returned. Job errors from cells that ran take precedence.
func RunSweepCtx(ctx context.Context, specs []workload.Spec, policies []core.Policy, includeInOrder bool, cfg Config, progress func(string)) (*Sweep, error) {
	// Grid's cells are workload-major, so a workload's cells are
	// contiguous: they are handed out in order, cluster in time, and the
	// workload's checkpoint series can be released as soon as the last one
	// finishes.
	cells, sw := Grid(specs, policies, includeInOrder)
	perWorkload := len(policies)
	if includeInOrder {
		perWorkload++
	}

	// In checkpoint mode the sampling points depend only on the workload,
	// so each workload's series is captured once (in parallel) and shared
	// read-only by all of its cells; restoring clones the memory, so the
	// series itself is never written after this phase.
	var series []*SampleSeries
	var seriesLeft []atomic.Int64 // cells still to run per workload
	if cfg.UseCheckpoints {
		series = make([]*SampleSeries, len(specs))
		seriesLeft = make([]atomic.Int64, len(specs))
		for i := range seriesLeft {
			seriesLeft[i].Store(int64(perWorkload))
		}
		if err := par.RunCtx(ctx, len(specs), cfg.workerCount(), func(i int) error {
			ss, err := TakeSamples(specs[i], cfg)
			if err != nil {
				return err
			}
			series[i] = ss
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Cells saturate the pool on their own; the per-sample fan-out inside
	// the checkpointed measurements stays serial to avoid nested pools.
	cellCfg := cfg
	cellCfg.Workers = 1

	results := make([]*Measurement, len(cells))
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
	err := par.RunCtx(ctx, len(cells), cfg.workerCount(), func(i int) error {
		w := i / perWorkload
		var ss *SampleSeries
		if cfg.UseCheckpoints {
			ss = series[w]
		}
		m, err := cells[i].Measure(ctx, cellCfg, ss)
		if err != nil {
			return err
		}
		if cfg.UseCheckpoints && seriesLeft[w].Add(-1) == 0 {
			// Last cell of this workload: drop the series so its cloned
			// memory pages can be reclaimed while the sweep continues.
			series[w] = nil
		}
		results[i] = m
		note(m)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i, c := range cells {
		sw.Set(c.Config(), c.Spec.Name, results[i])
	}
	return sw, nil
}
