package harness

import (
	"context"
	"fmt"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/stats"
	"nda/internal/workload"
)

// The one sampling path for both cores: an interval loop (warm-up, then
// measured windows with skips between them) and a fold, run once from each
// start of a workload's SampleSeries.
//
// A series starts either at the program's initial state (continuous
// sampling: the timing core simulates every window and every skip between
// them) or at checkpoints (SMARTS checkpoint sampling). In checkpoint
// mode, instead of simulating the whole region between measurement
// intervals in detail, the functional emulator fast-forwards to sampling
// points spread CheckpointStride instructions apart, captures an
// architectural checkpoint at each (the Lapidary role), and the timing
// core runs only the warm-up + measurement window from every checkpoint.
// This both cuts detailed-simulation cost and samples more distant program
// phases, like the paper's methodology.
//
// Every start is an independent simulation seeded entirely by its state: a
// worker's checkpoint.Cores resumes the cell's core from it, on the core's
// own memory image restored to the state's, and a resumed core equals a
// freshly built one. So a series is shared read-only by every policy's
// cell of its workload — or, via internal/serve's content-addressed cache,
// by every *request* that ever asks for that (workload, sampling spec)
// again — and a worker's cores run any number of cells.
//
// An OoO cell's loop may carry shadows: the compiled rules of other
// policies with its broadcast delay, armed on the core at every start
// (ooo.Core.SetShadows). The loop ORs the shadows that decided some point
// differently (ooo.Core.Diverged) over the starts; a shadow left clear
// would have run every start of this cell cycle for cycle, so its cell's
// Measurement is this one under its own Config. The sweep engine arms
// them; a standalone Cell.Measure arms none.

// SampleSeries is a workload's starts: the generated program plus the
// states the timing cores resume from. It is immutable once taken, so any
// number of concurrent measurements may share it.
type SampleSeries struct {
	prog *isa.Program
	cps  []*checkpoint.Checkpoint
	// continuous marks the series of continuous sampling: its one start
	// is the program's initial state, from which a cell measures
	// cfg.Intervals windows. A sampled series measures one per checkpoint.
	continuous bool
}

// TakeSamples builds the workload's program and captures cfg.Intervals
// checkpoints starting after cfg.WarmInsts instructions, spaced
// cfg.CheckpointStride apart (0 = 10x the warm+measure window). The
// fast-forward stops with ctx's error once ctx is done.
func TakeSamples(ctx context.Context, spec workload.Spec, cfg Config) (*SampleSeries, error) {
	prog := spec.Build(hugeIters)
	stride := cfg.CheckpointStride
	if stride == 0 {
		stride = 10 * (cfg.WarmInsts + cfg.MeasureInsts)
	}
	cps, err := checkpoint.TakeSeries(ctx, prog, cfg.WarmInsts, stride, cfg.Intervals)
	if err != nil {
		return nil, fmt.Errorf("harness: %s checkpoints: %w", spec.Name, err)
	}
	return &SampleSeries{prog: prog, cps: cps}, nil
}

// series returns the workload's series under cfg: TakeSamples' in
// checkpoint mode, otherwise the program's initial state alone.
func series(ctx context.Context, spec workload.Spec, cfg Config) (*SampleSeries, error) {
	if cfg.UseCheckpoints {
		return TakeSamples(ctx, spec, cfg)
	}
	prog := spec.Build(hugeIters)
	return &SampleSeries{prog: prog, cps: []*checkpoint.Checkpoint{checkpoint.Start(prog)}, continuous: true}, nil
}

// Measure runs the cell under cfg on cores of its own. In checkpoint mode
// (cfg.UseCheckpoints) it samples from ss, the workload's series from
// TakeSamples, and takes the series itself when ss is nil; otherwise ss is
// unused and the cell simulates continuously.
func (c Cell) Measure(ctx context.Context, cfg Config, ss *SampleSeries) (*Measurement, error) {
	if ss == nil || !cfg.UseCheckpoints {
		var err error
		if ss, err = series(ctx, c.Spec, cfg); err != nil {
			return nil, err
		}
	}
	m, _, err := c.measure(ctx, cfg, ss, new(checkpoint.Cores), nil)
	return m, err
}

// measure is the one sampling path for both cores: it runs the interval
// loop from each start of ss, in order, on the core of cs the cell needs,
// with shadows armed on an OoO core, and folds every measured window into
// one Measurement. It also returns the shadows that diverged at some start:
// bit j stands for shadows[j].
func (c Cell) measure(ctx context.Context, cfg Config, ss *SampleSeries, cs *checkpoint.Cores, shadows []core.Rules) (*Measurement, uint64, error) {
	f := fold{cpis: make([]float64, 0, cfg.Intervals)}
	for i := range ss.cps {
		if err := c.intervals(ctx, cfg, ss, i, cs, shadows, &f); err != nil {
			return nil, 0, err
		}
	}
	return f.measurement(c), f.diverged, nil
}

// intervals is the SMARTS interval loop from start i of ss: a warm-up of
// cfg.WarmInsts, then measured windows of cfg.MeasureInsts folded into f —
// cfg.Intervals of them with cfg.SkipInsts skipped between consecutive
// ones from the program's start, one from a checkpoint. The shadows that
// diverged in the run are ORed into f.
func (c Cell) intervals(ctx context.Context, cfg Config, ss *SampleSeries, i int, cs *checkpoint.Cores, shadows []core.Rules, f *fold) error {
	tc := c.resume(ctx, cfg, cs, ss.prog, ss.cps[i], shadows)
	windows, sample := 1, i // sample labels errors; -1 without a checkpoint
	if ss.continuous {
		windows, sample = cfg.Intervals, -1
	}
	if err := tc.run(cfg.WarmInsts, cfg.MaxCycles); err != nil {
		return c.fail(ctx, err, sample, "warm-up")
	}
	for w := 0; w < windows; w++ {
		tc.ResetStats()
		if err := tc.run(cfg.MeasureInsts, cfg.MaxCycles); err != nil {
			return c.fail(ctx, err, sample, fmt.Sprintf("interval %d", w))
		}
		f.add(*tc.Stats())
		if w < windows-1 && cfg.SkipInsts > 0 {
			tc.ResetStats()
			if err := tc.run(cfg.SkipInsts, cfg.MaxCycles); err != nil {
				return c.fail(ctx, err, sample, fmt.Sprintf("skip %d", w))
			}
		}
	}
	if o, ok := tc.(oooTiming); ok {
		f.diverged |= o.Diverged()
	}
	return nil
}

// timingCore is what the interval loop drives of either core: both keep
// the same counter block, and run commits n more instructions, the OoO
// core within maxCycles.
type timingCore interface {
	ResetStats()
	Stats() *stats.Counters
	run(n, maxCycles uint64) error
}

// oooTiming and inOrderTiming are the two cores as timingCores. Each holds
// one pointer, so it converts to the interface without allocating.
type (
	oooTiming     struct{ *ooo.Core }
	inOrderTiming struct{ *inorder.Machine }
)

func (t oooTiming) run(n, maxCycles uint64) error { return t.RunInsts(n, maxCycles) }
func (t inOrderTiming) run(n, _ uint64) error     { return t.RunInsts(n) }

// resume brings the cell's core of cs to cp on prog, with shadows armed on
// an OoO core, and returns it; its runs stop mid-simulation once ctx is
// done. Cancel and the shadows are set after the resume, whose Reset
// clears them.
func (c Cell) resume(ctx context.Context, cfg Config, cs *checkpoint.Cores, prog *isa.Program, cp *checkpoint.Checkpoint, shadows []core.Rules) timingCore {
	if c.InOrder {
		m := cs.ResumeInOrder(cp, prog, cfg.IOParams)
		m.Cancel = ctx.Done()
		return inOrderTiming{m}
	}
	o := cs.ResumeOoO(cp, prog, c.Policy, cfg.Params)
	o.Cancel = ctx.Done()
	o.SetShadows(shadows)
	return oooTiming{o}
}

// fail labels a core's error with the cell and the loop phase (callers
// format the phase only on the error path) unless ctx is done: the cores
// surface cancellation as their own ErrCancelled, but callers want the
// standard context.Canceled / context.DeadlineExceeded identity back.
func (c Cell) fail(ctx context.Context, err error, sample int, phase string) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if sample >= 0 {
		phase = fmt.Sprintf("sample %d %s", sample, phase)
	}
	return fmt.Errorf("harness: %s/%s %s: %w", c.Spec.Name, c.Config(), phase, err)
}

// fold accumulates a cell's measured windows in order: each window's CPI
// for the confidence interval, and the summed counters for the rest. It
// also gathers the shadows that diverged at any start.
type fold struct {
	cpis     []float64
	agg      stats.Counters
	diverged uint64
}

// add folds one window. s is a value snapshot, never a pointer into a live
// core: Stats returns the core's internal counter block, which keeps
// mutating as the core runs, so aggregating through the alias would tie
// the fold to simulation timing.
func (f *fold) add(s stats.Counters) {
	f.cpis = append(f.cpis, s.CPI())
	a := &f.agg
	a.Cycles += s.Cycles
	a.Committed += s.Committed
	a.CommitCycles += s.CommitCycles
	a.MemStallCycles += s.MemStallCycles
	a.BackendStalls += s.BackendStalls
	a.FrontendStalls += s.FrontendStalls
	a.MLPSum += s.MLPSum
	a.MLPCycles += s.MLPCycles
	a.ILPSum += s.ILPSum
	a.ILPCycles += s.ILPCycles
	a.DispatchToIssueSum += s.DispatchToIssueSum
	a.DispatchToIssueCount += s.DispatchToIssueCount
	a.DeferredBroadcasts += s.DeferredBroadcasts
	a.DeferralCycles += s.DeferralCycles
	a.BranchesResolved += s.BranchesResolved
	a.Mispredicts += s.Mispredicts
}

// measurement is the cell's result: the CPI summary across windows and the
// aggregates of the summed counters.
func (f *fold) measurement(c Cell) *Measurement {
	s := &f.agg
	m := &Measurement{Workload: c.Spec.Name, Config: c.Config(), CPI: stats.Summarize(f.cpis)}
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
	return m
}
