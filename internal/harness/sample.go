package harness

import (
	"context"
	"fmt"

	"nda/internal/checkpoint"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/stats"
	"nda/internal/workload"
)

// The one sampling path for both cores: an interval loop (warm-up, then
// measured windows with skips between them) and a fold, run either
// continuously from the program's start or once per checkpoint.
//
// Checkpoint-based SMARTS sampling: instead of simulating the whole region
// between measurement intervals in detail (the continuous mode of
// Cell.Measure), the functional emulator fast-forwards to sampling points
// spread CheckpointStride instructions apart, captures an architectural
// checkpoint at each (the Lapidary role), and the timing core runs only the
// warm-up + measurement window from every checkpoint. This both cuts
// detailed-simulation cost and samples more distant program phases, like
// the paper's methodology.
//
// Every sample is an independent simulation seeded entirely by its
// checkpoint (restoring clones the checkpoint's memory). A cell runs its
// samples in order; one workload's series is shared read-only by every
// policy's cell of it — or, via internal/serve's content-addressed cache,
// by every *request* that ever asks for that (workload, sampling spec)
// again.

// SampleSeries is a workload's sampling points: the generated program plus
// the checkpoints the timing cores restore from. It is immutable once
// taken, so any number of concurrent measurements may share it.
type SampleSeries struct {
	prog *isa.Program
	cps  []*checkpoint.Checkpoint
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

// Measure runs the cell under cfg. In checkpoint mode (cfg.UseCheckpoints)
// it samples from ss, the workload's series from TakeSamples, and takes the
// series itself when ss is nil; otherwise ss is unused and the cell
// simulates continuously.
func (c Cell) Measure(ctx context.Context, cfg Config, ss *SampleSeries) (*Measurement, error) {
	if !cfg.UseCheckpoints {
		return c.measure(ctx, cfg, nil)
	}
	if ss == nil {
		var err error
		if ss, err = TakeSamples(ctx, c.Spec, cfg); err != nil {
			return nil, err
		}
	}
	return c.measure(ctx, cfg, ss)
}

// measure is the one sampling path for both cores. With ss nil it runs the
// interval loop once on a core built from the program's start; otherwise
// once per checkpoint of ss, in order. Every measured window folds into
// one Measurement.
func (c Cell) measure(ctx context.Context, cfg Config, ss *SampleSeries) (*Measurement, error) {
	f := fold{cpis: make([]float64, 0, cfg.Intervals)}
	var err error
	if ss == nil {
		err = c.intervals(ctx, cfg, c.Spec.Build(hugeIters), nil, -1, &f)
	} else {
		for i := 0; i < len(ss.cps) && err == nil; i++ {
			err = c.intervals(ctx, cfg, ss.prog, ss.cps[i], i, &f)
		}
	}
	if err != nil {
		return nil, err
	}
	return f.measurement(c), nil
}

// intervals is the SMARTS interval loop on one core built over prog,
// resuming from cp when it is non-nil: a warm-up of cfg.WarmInsts, then
// measured windows of cfg.MeasureInsts folded into f — cfg.Intervals of
// them with cfg.SkipInsts skipped between consecutive ones on a core from
// the program's start, one from a checkpoint. sample is the checkpoint's
// index, for error messages (-1 without one).
func (c Cell) intervals(ctx context.Context, cfg Config, prog *isa.Program, cp *checkpoint.Checkpoint, sample int, f *fold) error {
	tc, run := c.core(ctx, cfg, prog, cp)
	windows := cfg.Intervals
	if cp != nil {
		windows = 1
	}
	if err := run(cfg.WarmInsts); err != nil {
		return c.fail(ctx, err, sample, "warm-up")
	}
	for i := 0; i < windows; i++ {
		tc.ResetStats()
		if err := run(cfg.MeasureInsts); err != nil {
			return c.fail(ctx, err, sample, fmt.Sprintf("interval %d", i))
		}
		f.add(*tc.Stats())
		if i < windows-1 && cfg.SkipInsts > 0 {
			tc.ResetStats()
			if err := run(cfg.SkipInsts); err != nil {
				return c.fail(ctx, err, sample, fmt.Sprintf("skip %d", i))
			}
		}
	}
	return nil
}

// timingCore is what the interval loop reads of either core: both keep the
// same counter block.
type timingCore interface {
	ResetStats()
	Stats() *stats.Counters
}

// core builds the cell's timing core over prog, resuming from cp when it is
// non-nil, and returns it with its run step: n more committed instructions,
// stopped mid-simulation once ctx is done.
func (c Cell) core(ctx context.Context, cfg Config, prog *isa.Program, cp *checkpoint.Checkpoint) (timingCore, func(n uint64) error) {
	if c.InOrder {
		var m *inorder.Machine
		if cp != nil {
			m = cp.InOrder(prog, cfg.IOParams)
		} else {
			m = inorder.NewFromProgram(prog, cfg.IOParams)
		}
		m.Cancel = ctx.Done()
		return m, m.RunInsts
	}
	var o *ooo.Core
	if cp != nil {
		o = cp.OoO(prog, c.Policy, cfg.Params)
	} else {
		o = ooo.NewFromProgram(prog, c.Policy, cfg.Params)
	}
	o.Cancel = ctx.Done()
	maxCycles := cfg.MaxCycles
	return o, func(n uint64) error { return o.RunInsts(n, maxCycles) }
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
// for the confidence interval, and the summed counters for the rest.
type fold struct {
	cpis []float64
	agg  stats.Counters
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
