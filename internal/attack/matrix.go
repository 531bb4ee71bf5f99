package attack

import (
	"context"
	"fmt"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/inorder"
	"nda/internal/ooo"
	"nda/internal/par"
)

// Expected encodes the paper's Table 2 security columns: for each attack,
// the set of policies under which the attack still succeeds. Policies not
// listed are expected to block the attack. The integration tests and
// cmd/ndattack verify the simulator reproduces exactly this matrix.
var Expected = map[Kind]map[string]bool{
	// The classic cache-channel Spectre is blocked by every defense.
	SpectreV1Cache: {
		"OoO": true,
	},
	// Branch-target injection and RSB mis-steering use the cache channel,
	// so (like v1) every defense stops them.
	SpectreV2: {
		"OoO": true,
	},
	Ret2spec: {
		"OoO": true,
	},
	// The paper's BTB channel defeats cache-only defenses (InvisiSpec) but
	// no NDA policy: the dependence chain feeding the indirect call never
	// wakes.
	SpectreV1BTB: {
		"OoO":                true,
		"InvisiSpec-Spectre": true,
		"InvisiSpec-Future":  true,
	},
	// Meltdown is a chosen-code attack: steering policies do not apply (no
	// mis-steered branch), so only load restriction — and InvisiSpec's
	// futuristic variant, for the cache channel specifically — stops it.
	Meltdown: {
		"OoO":                true,
		"Permissive":         true,
		"Permissive+BR":      true,
		"Strict":             true,
		"Strict+BR":          true,
		"InvisiSpec-Spectre": true,
	},
	// Speculative store bypass needs Bypass Restriction (or load
	// restriction / InvisiSpec-Future); rows 1 and 3 of Table 2 leave it
	// open.
	SSB: {
		"OoO":                true,
		"Permissive":         true,
		"Strict":             true,
		"InvisiSpec-Spectre": true,
	},
	// The LazyFP/v3a analogue behaves like Meltdown with RDMSR as the
	// load-like access.
	LazyFP: {
		"OoO":                true,
		"Permissive":         true,
		"Permissive+BR":      true,
		"Strict":             true,
		"Strict+BR":          true,
		"InvisiSpec-Spectre": true,
	},
	// The hypothetical GPR attack has no access-phase load, so permissive
	// propagation and load restriction cannot see it; only strict
	// propagation breaks the transmit chain. InvisiSpec hides its cache
	// channel.
	GPRSteering: {
		"OoO":             true,
		"Permissive":      true,
		"Permissive+BR":   true,
		"RestrictedLoads": true,
	},
	// Listing 4 (§8): with the victim's no-speculation window, the attack
	// fails everywhere — there is no wrong path to steer.
	GPRSteeringSpecOff: {},
}

// Cell is one (attack, policy) evaluation.
type Cell struct {
	Attack   Kind
	Policy   string
	Outcome  *Outcome
	Expected bool

	// Pol and InOrder say what Run simulates: the attack under Pol on the
	// OoO core, or on the in-order core. They stay out of the JSON, which
	// Policy already labels.
	Pol     core.Policy `json:"-"`
	InOrder bool        `json:"-"`
}

// Matches reports whether the measured verdict equals the paper's.
func (c Cell) Matches() bool { return c.Outcome.Leaked == c.Expected }

// Run simulates the cell on cores of its own and analyzes its timing
// series: the attack under Pol on the OoO core, configured by params, or
// on the in-order core, which is trivially immune (there is no wrong path
// at all). The outcome is labelled Pol.Name or In-Order, not Policy, which
// cells built from a worker request leave empty.
func (c Cell) Run(ctx context.Context, params ooo.Params) (*Outcome, error) {
	return c.run(ctx, params, new(checkpoint.Cores))
}

// run is Run on a worker's cores: the cell's core of cs resumes from the
// PoC's start state, which leaves it exactly as a new core would be,
// whatever it ran before.
func (c Cell) run(ctx context.Context, params ooo.Params, cs *checkpoint.Cores) (*Outcome, error) {
	p, err := lookup(c.Attack)
	if err != nil {
		return nil, err
	}
	label := c.Pol.Name
	var (
		read               func(addr uint64, size int) uint64
		cycles, violations uint64
	)
	if c.InOrder {
		m := cs.ResumeInOrder(p.start, p.prog, inorder.DefaultParams())
		m.Cancel = ctx.Done()
		err = m.Run(100_000_000)
		label, read, cycles = inOrderName, m.Emu().Mem.Read, m.Cycles()
	} else {
		o := cs.ResumeOoO(p.start, p.prog, c.Pol, params)
		o.Cancel = ctx.Done()
		if p.warm != nil {
			p.warm(o)
		}
		err = o.Run(30_000_000)
		read, cycles, violations = o.Memory().Read, o.Cycles(), o.SanitizerViolations()
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("attack %s under %s: %w", c.Attack, label, err)
	}
	out := analyze(c.Attack, label, p.threshold, read)
	out.Cycles, out.SanitizerViolations = cycles, violations
	return out, nil
}

// Grid lays out the security matrix: for each attack, every policy in
// order, then the in-order core when inOrder is set. Each cell carries the
// paper's expected verdict; Run fills in the outcome. MatrixCtx and the
// serving layer both evaluate this layout, so their grids agree cell for
// cell.
func Grid(kinds []Kind, pols []core.Policy, inOrder bool) []Cell {
	cells := make([]Cell, 0, len(kinds)*(len(pols)+1))
	for _, kind := range kinds {
		for _, pol := range pols {
			cells = append(cells, Cell{Attack: kind, Policy: pol.Name, Expected: Expected[kind][pol.Name], Pol: pol})
		}
		if inOrder {
			cells = append(cells, Cell{Attack: kind, Policy: inOrderName, InOrder: true})
		}
	}
	return cells
}

// MatrixCtx runs every attack under every policy (plus the in-order core)
// and returns the full grid — the dynamic reproduction of Table 2's
// security columns and Table 1's "demonstrated" checkmarks — over up to
// workers goroutines (0 = one per CPU). Each pool worker keeps one
// checkpoint.Cores and runs its cells on it, resumed from the PoCs' shared
// start states as sweep cells are from their series; each verdict lands
// in the slot its tuple indexes, so the returned grid is identical — in
// content and order — for any worker count. Once ctx is done, no queued
// cell starts and in-flight PoCs stop mid-simulation; the ctx error is
// returned unless a cell failed first.
func MatrixCtx(ctx context.Context, params ooo.Params, workers int) ([]Cell, error) {
	cells := Grid(All(), core.All(), true)
	cores := make([]checkpoint.Cores, par.Workers(workers))
	err := par.RunCtx(ctx, len(cells), len(cores), func(w, i int) error {
		out, err := cells[i].run(ctx, params, &cores[w])
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("matrix: %w", err)
		}
		cells[i].Outcome = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}
