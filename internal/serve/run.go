package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"nda/internal/dist"
	"nda/internal/par"
)

// This file is where jobs meet the cache. Every request becomes a plan:
// its cells in result order (laid out by harness.Grid, attack.Grid, or the
// census program list) plus a function that assembles their values into
// the response. run fans the cells out over the par pool and resolves each
// one through a single tier chain — RAM, the disk store, the fleet-shared
// store, then compute — under its content-addressed key. A repeated
// request, or a different request that shares cells with an earlier one (a
// sweep over a workload subset, say, after a full sweep), is assembled
// without re-simulation.
//
// Compute is local, or with a fleet configured (Config.Fleet) a dispatch
// of the cell's CellRequest to a remote worker. Everything else — layout,
// keys, merge order, error semantics — is shared between the two, which
// is why a fleet-merged result is byte-identical to a single-process run.

// plan is a request decomposed for run: the cells to resolve, in result
// order, and how their resolved values assemble into the response.
type plan struct {
	cells    []cell
	assemble func(vals []any) any
}

// run resolves every cell of p and assembles the response.
func (m *Manager) run(ctx context.Context, j *Job, p *plan) (any, error) {
	// Add, not set: a warm job runs several plans and accumulates one
	// combined progress total.
	j.update(func() bool {
		j.total += int64(len(p.cells))
		return true
	})
	vals := make([]any, len(p.cells))
	err := par.RunCtx(ctx, len(p.cells), m.simWorkers(), func(i int) error {
		v, err := m.resolve(ctx, j, &p.cells[i])
		if err != nil {
			return err
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.assemble(vals), nil
}

// resolve serves one cell from the first tier that holds it, or computes
// it — locally, or by dispatching it to the fleet — and writes it back
// into every tier, then folds the resolution into the job's progress and
// the service's counters. j may be nil: the worker-side /v1/cell path
// serves cells with no job behind them.
func (m *Manager) resolve(ctx context.Context, j *Job, c *cell) (any, error) {
	var stat dist.Stat
	v, tier, err := m.cache.DoTiered(ctx, c.key, m.tiers, c.kind.decode, func() (any, error) {
		if m.cfg.Fleet == nil {
			return c.kind.compute(m, ctx, c)
		}
		body, err := json.Marshal(c.req)
		if err != nil {
			return nil, err
		}
		raw, s, err := m.cfg.Fleet.Do(ctx, "/v1/cell", body)
		stat = s
		if err != nil {
			return nil, err
		}
		v, err := c.kind.decode(raw)
		if err != nil {
			return nil, fmt.Errorf("serve: undecodable cell response from %s: %w", stat.Worker, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	if j != nil {
		j.cellDone(tier, stat.Attempts)
	}
	switch tier {
	case HitRAM, HitDisk:
		m.metrics.CacheHits.Add(1)
	default:
		m.metrics.CacheMisses.Add(1)
	}
	if tier == HitDisk {
		m.metrics.CacheDiskHits.Add(1)
	}
	return v, nil
}
