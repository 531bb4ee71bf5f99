package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

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
	workloads, configs := sw.Workloads, sw.Configs
	return &plan{cells: sweepCells(hcells, &cfg, r.Sampling), assemble: func(rs []resolved) ([]byte, error) {
		return sweepResponseJSON(workloads, configs, rs)
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
// A sweep job writes it with sweepResponseJSON, not encoding/json.
type SweepResponse struct {
	Sweep     *harness.Sweep     `json:"sweep"`
	Overheads map[string]float64 `json:"overheads_pct,omitempty"`
}

// sweepResponseJSON returns the bytes json.Marshal gives for the
// SweepResponse of a grid with axes workloads × configs, whose cells rs
// come in harness.Grid's order (workload-major, configs in order within a
// workload). Each cell's measurement is spliced in from its canonical
// encoding, and the grid's maps go out with their keys sorted, as
// encoding/json sorts them. The overheads are harness.OverheadOf, the
// function Sweep.Overhead calls, in encoding/json's float format; like
// json.Marshal, it fails on one that is NaN or infinite. The axes are
// non-empty and distinct: an empty list means every name, request
// validation rejects repeated names, and no policy is named
// harness.InOrderName.
func sweepResponseJSON(workloads, configs []string, rs []resolved) ([]byte, error) {
	nc := len(configs)
	cpi := func(w, c int) float64 { return rs[w*nc+c].val.(*harness.Measurement).CPI.Mean }
	wi, ci := sortedOrder(workloads), sortedOrder(configs)
	base := slices.Index(configs, core.Baseline().Name)

	// Size the buffer to an upper bound of the response, so it never
	// regrows and a finished job retains little beyond its answer.
	n := 64 + len(rs)
	for _, r := range rs {
		n += len(r.enc)
	}
	for _, w := range workloads {
		n += (jsonStringLen(w) + 1) * (nc + 1)
	}
	for _, c := range configs {
		n += (jsonStringLen(c)+3)*3 + maxJSONFloatLen
	}

	b := make([]byte, 0, n)
	b = append(b, `{"sweep":{"Workloads":`...)
	b = appendJSONStrings(b, workloads)
	b = append(b, `,"Configs":`...)
	b = appendJSONStrings(b, configs)
	b = append(b, `,"Cells":{`...)
	for k, c := range ci {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, configs[c])
		b = append(b, `:{`...)
		for l, w := range wi {
			if l > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, workloads[w])
			b = append(b, ':')
			b = append(b, rs[w*nc+c].enc...)
		}
		b = append(b, '}')
	}
	b = append(b, `}}`...)
	if base >= 0 && nc > 1 {
		b = append(b, `,"overheads_pct":{`...)
		first := true
		for _, c := range ci {
			if c == base {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendJSONString(b, configs[c])
			b = append(b, ':')
			pct := harness.OverheadOf(len(workloads), func(w int) (float64, float64) { return cpi(w, c), cpi(w, base) })
			var err error
			if b, err = appendJSONFloat(b, pct); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// sortedOrder returns the indices of names in the order encoding/json
// writes them as map keys: by byte-wise string comparison.
func sortedOrder(names []string) []int {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return idx
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
	return &plan{cells: cells, assemble: func(rs []resolved) ([]byte, error) {
		resp := &AttackResponse{Cells: acells}
		for i := range acells {
			acells[i].Outcome = rs[i].val.(*attack.Outcome)
			if !acells[i].Matches() {
				resp.Mismatches++
			}
		}
		return json.Marshal(resp)
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
	return &plan{cells: cells, assemble: func(rs []resolved) ([]byte, error) {
		report := &gadget.Report{Window: gadget.DefaultWindow, Programs: make([]gadget.ProgramReport, len(rs))}
		for i, r := range rs {
			report.Programs[i] = *r.val.(*gadget.ProgramReport)
		}
		return json.Marshal(report)
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
