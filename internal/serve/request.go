package serve

import (
	"fmt"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/gadget"
	"nda/internal/harness"
	"nda/internal/workload"
)

// SamplingSpec selects the SMARTS methodology for a sweep request. The
// zero value means the standard methodology (harness.DefaultConfig); Quick
// switches to the reduced smoke-run methodology; any explicitly non-zero
// window overrides the corresponding field. The resolved harness.Config —
// not the spec as written — is what the cache key hashes, so a request
// that spells out the default values verbatim hits the same cache entries
// as one that leaves them blank.
type SamplingSpec struct {
	Quick            bool   `json:"quick,omitempty"`
	Checkpoints      bool   `json:"checkpoints,omitempty"`
	CheckpointStride uint64 `json:"checkpoint_stride,omitempty"`
	WarmInsts        uint64 `json:"warm_insts,omitempty"`
	MeasureInsts     uint64 `json:"measure_insts,omitempty"`
	SkipInsts        uint64 `json:"skip_insts,omitempty"`
	Intervals        int    `json:"intervals,omitempty"`
	MaxCycles        uint64 `json:"max_cycles,omitempty"`
}

// maxIntervals bounds SamplingSpec.Intervals. The fold sizes its sample
// buffer by the interval count before measuring anything, so an unbounded
// count in a small request body could exhaust memory; the standard
// methodology uses 8.
const maxIntervals = 1024

// resolve maps the spec onto a concrete harness.Config, rejecting an
// interval count above maxIntervals. Long but cancellable work — a huge
// warm-up or window — stays allowed.
func (s SamplingSpec) resolve() (harness.Config, error) {
	if s.Intervals > maxIntervals {
		return harness.Config{}, fmt.Errorf("serve: sampling intervals %d exceeds the limit of %d", s.Intervals, maxIntervals)
	}
	cfg := harness.DefaultConfig()
	if s.Quick {
		cfg = harness.Quick()
	}
	cfg.UseCheckpoints = s.Checkpoints
	if s.CheckpointStride > 0 {
		cfg.CheckpointStride = s.CheckpointStride
	}
	if s.WarmInsts > 0 {
		cfg.WarmInsts = s.WarmInsts
	}
	if s.MeasureInsts > 0 {
		cfg.MeasureInsts = s.MeasureInsts
	}
	if s.SkipInsts > 0 {
		cfg.SkipInsts = s.SkipInsts
	}
	if s.Intervals > 0 {
		cfg.Intervals = s.Intervals
	}
	if s.MaxCycles > 0 {
		cfg.MaxCycles = s.MaxCycles
	}
	return cfg, nil
}

// SweepRequest asks for the paper's performance sweep: every listed
// workload measured under every listed policy (plus the in-order bound
// unless disabled). Empty lists mean "all".
type SweepRequest struct {
	Workloads []string     `json:"workloads,omitempty"` // empty = all 23 SPEC proxies
	Policies  []string     `json:"policies,omitempty"`  // empty = all configurations
	NoInOrder bool         `json:"no_in_order,omitempty"`
	Sampling  SamplingSpec `json:"sampling,omitempty"`
}

// plan validates the request and lays its cells out with harness.Grid.
func (r SweepRequest) plan() (*plan, error) {
	if err := distinct("workload", r.Workloads); err != nil {
		return nil, err
	}
	var specs []workload.Spec
	if len(r.Workloads) == 0 {
		specs = workload.SPEC()
	}
	for _, name := range r.Workloads {
		s, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	pols, err := policies(r.Policies)
	if err != nil {
		return nil, err
	}
	cfg, err := r.Sampling.resolve()
	if err != nil {
		return nil, err
	}
	hcells, sw := harness.Grid(specs, pols, !r.NoInOrder)
	return &plan{cells: sweepCells(hcells, &cfg, r.Sampling), assemble: func(vals []any) any {
		for i, hc := range hcells {
			sw.Set(hc.Config(), hc.Spec.Name, vals[i].(*harness.Measurement))
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
	}}, nil
}

// policies resolves policy names; none means every configuration.
func policies(names []string) ([]core.Policy, error) {
	if len(names) == 0 {
		return core.All(), nil
	}
	if err := distinct("policy", names); err != nil {
		return nil, err
	}
	pols := make([]core.Policy, len(names))
	for i, name := range names {
		p, err := core.ByName(name)
		if err != nil {
			return nil, err
		}
		pols[i] = p
	}
	return pols, nil
}

// SweepResponse is the sweep result: the full measurement grid plus the
// headline overhead-vs-OoO percentages (Table 2's overhead column) for
// every configuration, when the insecure baseline is part of the request.
type SweepResponse struct {
	Sweep     *harness.Sweep     `json:"sweep"`
	Overheads map[string]float64 `json:"overheads_pct,omitempty"`
}

// AttackRequest asks for (a subset of) the security matrix: every listed
// attack run under every listed policy, plus the in-order core unless
// disabled. Empty lists mean "all" — the full Table 2 reproduction.
type AttackRequest struct {
	Attacks   []string `json:"attacks,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	NoInOrder bool     `json:"no_in_order,omitempty"`
}

// plan validates the request and lays its cells out with attack.Grid.
func (r AttackRequest) plan() (*plan, error) {
	if err := distinct("attack", r.Attacks); err != nil {
		return nil, err
	}
	kinds := attack.All()
	if len(r.Attacks) > 0 {
		kinds = make([]attack.Kind, len(r.Attacks))
	}
	for i, name := range r.Attacks {
		k, err := attack.ByName(name)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	pols, err := policies(r.Policies)
	if err != nil {
		return nil, err
	}
	acells := attack.Grid(kinds, pols, !r.NoInOrder)
	cells := make([]cell, len(acells))
	for i, ac := range acells {
		cells[i] = attackCell(ac)
	}
	return &plan{cells: cells, assemble: func(vals []any) any {
		resp := &AttackResponse{Cells: acells}
		for i := range acells {
			acells[i].Outcome = vals[i].(*attack.Outcome)
			if !acells[i].Matches() {
				resp.Mismatches++
			}
		}
		return resp
	}}, nil
}

// AttackResponse is the evaluated (attack, policy) grid plus the count of
// verdicts that diverge from the paper's Table 2.
type AttackResponse struct {
	Cells      []attack.Cell `json:"cells"`
	Mismatches int           `json:"mismatches"`
}

// GadgetsRequest asks for the static gadget census over the named built-in
// programs (attack snippets and workload kernels); empty means all.
type GadgetsRequest struct {
	Programs []string `json:"programs,omitempty"`
}

// plan validates the request: one census cell per program, in request
// order (all builtins, attacks then workloads, when none are named).
func (r GadgetsRequest) plan() (*plan, error) {
	if err := distinct("program", r.Programs); err != nil {
		return nil, err
	}
	var ins []gadget.Input
	if len(r.Programs) == 0 {
		var err error
		if ins, err = cachedBuiltins(); err != nil {
			return nil, err
		}
	}
	for _, name := range r.Programs {
		in, err := builtin(name)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	cells := make([]cell, len(ins))
	for i, in := range ins {
		cells[i] = gadgetCell(in)
	}
	return &plan{cells: cells, assemble: func(vals []any) any {
		report := &gadget.Report{Window: gadget.DefaultWindow, Programs: make([]gadget.ProgramReport, len(vals))}
		for i, v := range vals {
			report.Programs[i] = *v.(*gadget.ProgramReport)
		}
		return report
	}}, nil
}

// distinct rejects a name list that repeats a name. A repeat adds no
// result, only cells, so a small body naming one workload many times could
// otherwise ask for unbounded work before any admission check.
func distinct(what string, names []string) error {
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return fmt.Errorf("serve: %s %q named more than once", what, name)
		}
		seen[name] = true
	}
	return nil
}
