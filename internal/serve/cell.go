package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/gadget"
	"nda/internal/harness"
	"nda/internal/ooo"
	"nda/internal/workload"
)

// This file defines the cell, the one unit of work every path resolves: a
// job's plan (run.go), a warm run, and a worker's POST /v1/cell all build
// their cells with the constructors below and hand them to the same
// resolver. A cell carries its content key, the CellRequest a fleet worker
// recomputes it from, and its kind's table entry (local compute and result
// codec), so a result kind is one constructor plus one cellKind.

// CellRequest is the fleet's unit of work: exactly one simulation cell,
// shipped by a coordinator to a worker as POST /v1/cell and answered with
// the cell's canonical JSON (a harness.Measurement, an attack.Outcome, or
// a gadget.ProgramReport, by kind). It deliberately mirrors the result
// cache's cell keys — a cell's response is a pure function of this request
// — which is what makes a fleet-merged table byte-identical to a local
// run: the coordinator assembles the same values into the same slots.
//
// The attack kind carries no ooo.Params: every node simulates attack cells
// under ooo.DefaultParams, so a coordinator and its workers agree on the
// params, and the key, by construction. A fleet must still run one build,
// exactly as a batch cluster's array jobs assume a uniform image.
type CellRequest struct {
	Kind string `json:"kind"` // "sweep", "attack", or "gadget"

	// Sweep cells.
	Workload string       `json:"workload,omitempty"`
	InOrder  bool         `json:"in_order,omitempty"`
	Sampling SamplingSpec `json:"sampling,omitempty"`

	// Sweep (when InOrder is false) and attack cells.
	Policy string `json:"policy,omitempty"`

	// Attack cells.
	Attack string `json:"attack,omitempty"`

	// Gadget cells.
	Program string `json:"program,omitempty"`
}

// cellKind is one result kind's table entry: how its value is computed in
// this process and decoded from a tier's or a worker's bytes, and whether
// its RAM entries keep their encodings (only the sweep kind's response is
// spliced from them; the others encode their response whole).
type cellKind struct {
	compute func(m *Manager, ctx context.Context, c *cell) (any, error)
	decode  func(b []byte) (any, error)
	spliced bool
}

var (
	sweepKind  = &cellKind{compute: (*Manager).measure, decode: decodeJSON[harness.Measurement], spliced: true}
	attackKind = &cellKind{compute: (*Manager).runAttack, decode: decodeJSON[attack.Outcome]}
	gadgetKind = &cellKind{compute: (*Manager).census, decode: decodeJSON[gadget.ProgramReport]}
)

// cell is one resolvable unit of work. Only the inputs of its own kind are
// set.
type cell struct {
	kind *cellKind
	key  string      // content address in every tier
	req  CellRequest // what a fleet worker is sent on a miss

	sweep  harness.Cell
	cfg    *harness.Config // shared by a sweep's cells
	attack attack.Cell
	prog   gadget.Input
}

// decodeJSON is the codec of every kind: values are stored and shipped as
// their canonical JSON.
func decodeJSON[T any](b []byte) (any, error) {
	v := new(T)
	if err := json.Unmarshal(b, v); err != nil {
		return nil, err
	}
	return v, nil
}

// sweepCellKey describes everything a sweep cell's result depends on. The
// embedded harness.Config carries the full sampling spec and ooo.Params;
// Workers is zeroed before hashing because parallelism must never change
// identity.
type sweepCellKey struct {
	Workload string         `json:"workload"`
	InOrder  bool           `json:"in_order"`
	Policy   policyKey      `json:"policy"`
	Config   harness.Config `json:"config"`
}

// policyKey is the frozen view of a policy in a cell key: the fields and
// values core.Policy serialised to when policies were six knobs, so every
// stored result keeps its address now that a policy is its gate list. Each
// gate of the evaluated policies sets the knob it came from. Cells name
// their policy, so no other gate can reach a key.
type policyKey struct {
	Name                  string
	GuardBranches         bool
	PropagationRestricted bool
	RestrictAll           bool
	BypassRestriction     bool
	LoadRestriction       bool
	LoadVisibility        uint8
	ExtraBroadcastDelay   int
}

func keyOf(p core.Policy) policyKey {
	k := policyKey{Name: p.Name, ExtraBroadcastDelay: p.ExtraBroadcastDelay}
	for _, g := range p.Gates {
		switch g {
		case core.Gate{Edge: core.EdgeLoadUse, Scope: core.ScopeUnderGuard, Until: core.ReleaseGuardsResolve}:
			k.GuardBranches, k.PropagationRestricted = true, true
		case core.Gate{Edge: core.EdgeAnyUse, Scope: core.ScopeUnderGuard, Until: core.ReleaseGuardsResolve}:
			k.RestrictAll = true
		case core.Gate{Edge: core.EdgeLoadUse, Scope: core.ScopeBypassingLoad, Until: core.ReleaseStoreAddrsResolve}:
			k.BypassRestriction = true
		case core.Gate{Edge: core.EdgeLoadUse, Scope: core.ScopeAlways, Until: core.ReleaseEldest}:
			k.LoadRestriction = true
		case core.Gate{Edge: core.EdgeFill, Scope: core.ScopeUnderGuard, Until: core.ReleaseGuardsResolve}:
			k.GuardBranches, k.LoadVisibility = true, 1
		case core.Gate{Edge: core.EdgeFill, Scope: core.ScopeAlways, Until: core.ReleaseRetire}:
			k.GuardBranches, k.LoadVisibility = true, 2
		default:
			panic(fmt.Sprintf("serve: gate %+v has no cell-key field", g))
		}
	}
	return k
}

// seriesKey identifies a workload's checkpoint series: the sampling spec
// determines where the sampling points fall, nothing else does.
type seriesKey struct {
	Workload string         `json:"workload"`
	Config   harness.Config `json:"config"`
}

// attackCellKey describes one (attack, policy) security-matrix cell.
type attackCellKey struct {
	Attack  attack.Kind `json:"attack"`
	InOrder bool        `json:"in_order"`
	Policy  policyKey   `json:"policy"`
	Params  ooo.Params  `json:"params"`
}

// gadgetKey identifies one program's static census entry.
type gadgetKey struct {
	Program string `json:"program"`
	Window  int    `json:"window"`
}

// sweepCells builds a sweep's cells, all under one sampling config. The
// fleet request carries the sampling spec as written; the worker resolves
// it to the identical config. The key view of that config is encoded once
// for all the cells.
func sweepCells(hcs []harness.Cell, cfg *harness.Config, sampling SamplingSpec) []cell {
	keyCfg := *cfg
	keyCfg.Workers = 0
	config := mustJSON("sweep-cell", keyCfg)
	cells := make([]cell, len(hcs))
	for i, hc := range hcs {
		cells[i] = cell{
			kind:  sweepKind,
			key:   sweepCellID(hc, config),
			req:   CellRequest{Kind: "sweep", Workload: hc.Spec.Name, InOrder: hc.InOrder, Sampling: sampling},
			sweep: hc,
			cfg:   cfg,
		}
		if !hc.InOrder {
			cells[i].req.Policy = hc.Policy.Name
		}
	}
	return cells
}

// sweepCellID is Key("sweep-cell", sweepCellKey{...}) for hc under the
// key-view config whose JSON is config.
func sweepCellID(hc harness.Cell, config []byte) string {
	var buf [2048]byte
	return keyID("sweep-cell", sweepCellPreimage(keyHead(buf[:0], "sweep-cell"), hc, config))
}

// sweepCellPreimage appends the bytes json.Marshal gives for hc's
// sweepCellKey, spliced from the parts encoded ahead of it: config, and
// the policy's key view from policyKeyJSON.
func sweepCellPreimage(b []byte, hc harness.Cell, config []byte) []byte {
	b = append(b, `{"workload":`...)
	b = appendJSONString(b, hc.Spec.Name)
	b = append(b, `,"in_order":`...)
	b = strconv.AppendBool(b, hc.InOrder)
	b = append(b, `,"policy":`...)
	k := keyOf(hc.Policy)
	if pk, ok := policyKeyJSON()[k]; ok {
		b = append(b, pk...)
	} else {
		b = append(b, mustJSON("sweep-cell", k)...)
	}
	b = append(b, `,"config":`...)
	b = append(b, config...)
	return append(b, '}')
}

// policyKeyJSON holds the encoded key view of every evaluated policy and
// of the zero policy in-order cells carry, built by the first sweep plan.
var policyKeyJSON = sync.OnceValue(func() map[policyKey][]byte {
	m := make(map[policyKey][]byte)
	for _, p := range append(core.All(), core.Policy{}) {
		k := keyOf(p)
		m[k] = mustJSON("sweep-cell", k)
	}
	return m
})

// seriesID is the cache key of a workload's checkpoint series.
func seriesID(spec workload.Spec, cfg harness.Config) string {
	cfg.Workers = 0
	return Key("series", seriesKey{Workload: spec.Name, Config: cfg})
}

// attackCell builds an attack-matrix cell, simulated under
// ooo.DefaultParams.
func attackCell(ac attack.Cell) cell {
	c := cell{
		kind:   attackKind,
		key:    Key("attack-cell", attackCellKey{Attack: ac.Attack, InOrder: ac.InOrder, Policy: keyOf(ac.Pol), Params: ooo.DefaultParams()}),
		req:    CellRequest{Kind: "attack", Attack: string(ac.Attack), InOrder: ac.InOrder},
		attack: ac,
	}
	if !ac.InOrder {
		c.req.Policy = ac.Pol.Name
	}
	return c
}

// gadgetCell builds a program's census cell.
func gadgetCell(in gadget.Input) cell {
	return cell{
		kind: gadgetKind,
		key:  Key("gadget", gadgetKey{Program: in.Name, Window: gadget.DefaultWindow}),
		req:  CellRequest{Kind: "gadget", Program: in.Name},
		prog: in,
	}
}

// cell validates the request and builds its cell with the constructor a
// job would use, so a worker resolves it under the coordinator's key.
func (r CellRequest) cell() (cell, error) {
	switch r.Kind {
	case "sweep":
		spec, err := workload.ByName(r.Workload)
		if err != nil {
			return cell{}, err
		}
		hc := harness.Cell{Spec: spec, InOrder: r.InOrder}
		switch {
		case r.InOrder && r.Policy != "":
			return cell{}, fmt.Errorf("serve: in-order cell must not name a policy (got %q)", r.Policy)
		case !r.InOrder:
			if hc.Policy, err = core.ByName(r.Policy); err != nil {
				return cell{}, err
			}
		}
		cfg, err := r.Sampling.resolve()
		if err != nil {
			return cell{}, err
		}
		return sweepCells([]harness.Cell{hc}, &cfg, r.Sampling)[0], nil
	case "attack":
		kind, err := attack.ByName(r.Attack)
		if err != nil {
			return cell{}, err
		}
		ac := attack.Cell{Attack: kind, InOrder: r.InOrder}
		if !r.InOrder {
			if ac.Pol, err = core.ByName(r.Policy); err != nil {
				return cell{}, err
			}
		}
		return attackCell(ac), nil
	case "gadget":
		in, err := builtin(r.Program)
		if err != nil {
			return cell{}, err
		}
		return gadgetCell(in), nil
	}
	return cell{}, fmt.Errorf("serve: unknown cell kind %q (want sweep, attack, or gadget)", r.Kind)
}

// cachedBuiltins memoizes gadget.Builtins for the life of the process:
// assembling every builtin attack and workload program costs far more than
// serving a cache-resolved census cell, and the set is immutable (census
// goroutines already share Input values read-only, see gadget.BuildReport).
var cachedBuiltins = sync.OnceValues(gadget.Builtins)

// builtin looks up one census program by name.
func builtin(name string) (gadget.Input, error) {
	ins, err := cachedBuiltins()
	if err != nil {
		return gadget.Input{}, err
	}
	for _, in := range ins {
		if in.Name == name {
			return in, nil
		}
	}
	return gadget.Input{}, fmt.Errorf("serve: unknown program %q", name)
}

// measure computes a sweep cell. In checkpoint mode the workload's sample
// series is itself cache-resolved first, so the functional fast-forward
// and checkpoint capture happen once per (workload, sampling spec) per
// process.
func (m *Manager) measure(ctx context.Context, c *cell) (any, error) {
	var ss *harness.SampleSeries
	if c.cfg.UseCheckpoints {
		v, _, _, err := m.cache.Do(ctx, seriesID(c.sweep.Spec, *c.cfg), func() (any, []byte, int, error) {
			ss, err := harness.TakeSamples(ctx, c.sweep.Spec, *c.cfg)
			return ss, nil, 0, err
		})
		if err != nil {
			return nil, err
		}
		ss = v.(*harness.SampleSeries)
	}
	mres, err := c.sweep.Measure(ctx, *c.cfg, ss)
	if err != nil {
		return nil, err
	}
	m.simulated(mres.Cycles)
	return mres, nil
}

// runAttack computes an attack-matrix cell.
func (m *Manager) runAttack(ctx context.Context, c *cell) (any, error) {
	out, err := c.attack.Run(ctx, ooo.DefaultParams())
	if err != nil {
		return nil, err
	}
	m.simulated(out.Cycles)
	return out, nil
}

// census computes a program's static census entry.
func (m *Manager) census(_ context.Context, c *cell) (any, error) {
	in := c.prog
	pr := gadget.NewProgramReport(in.Name, in.Group, gadget.Analyze(in.Prog, in.Cfg), in.Group == "attack")
	return &pr, nil
}

// simulated counts one detailed simulation of the given length.
func (m *Manager) simulated(cycles uint64) {
	m.metrics.Simulations.Add(1)
	m.metrics.CyclesSimulated.Add(int64(cycles))
}
