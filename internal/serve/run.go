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
// census program list) plus a function that assembles their values, or
// their canonical encodings, into the response bytes. run fans the cells
// out over the par pool and resolves each one through a single tier chain
// — RAM, the disk store, the fleet-shared store, then compute — under its
// content-addressed key. A repeated request, or a different request that
// shares cells with an earlier one (a sweep over a workload subset, say,
// after a full sweep), is assembled without re-simulation.
//
// Compute is local, or with a fleet configured (Config.Fleet) a dispatch
// of the cell's CellRequest to a remote worker. Everything else — layout,
// keys, merge order, error semantics — is shared between the two, which
// is why a fleet-merged result is byte-identical to a single-process run.

// plan is a request decomposed for run: the cells to resolve, in result
// order, and how their resolved values assemble into the response's
// bytes.
type plan struct {
	cells    []cell
	assemble func(rs []resolved) ([]byte, error)
}

// resolved is one resolved cell: its value and, for a kind whose
// response is spliced, the value's canonical encoding, which the cache
// keeps with it.
type resolved struct {
	val any
	enc []byte
}

// run resolves every cell of p and assembles the response.
func (m *Manager) run(ctx context.Context, j *Job, p *plan) ([]byte, error) {
	rs, err := m.resolveAll(ctx, j, p)
	if err != nil {
		return nil, err
	}
	return p.assemble(rs)
}

// resolveAll resolves every cell of p, in result order.
func (m *Manager) resolveAll(ctx context.Context, j *Job, p *plan) ([]resolved, error) {
	// Add, not set: a warm job runs several plans and accumulates one
	// combined progress total.
	j.update(func() bool {
		j.total += int64(len(p.cells))
		return true
	})
	rs := make([]resolved, len(p.cells))
	err := par.RunCtx(ctx, len(p.cells), m.simWorkers(), func(i int) error {
		r, err := m.resolve(ctx, j, &p.cells[i])
		rs[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// Tier is one persistent cache level under the in-RAM LRU: the local disk
// store (internal/store), the fleet-shared store, or any other key/value
// layer keyed by the same Key(...) hashes. Every method is best-effort — a
// tier that misses or fails simply pushes the request to the next level,
// and finally to compute.
type Tier interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
	// Has reports presence without reading the value (the admission
	// probe).
	Has(key string) bool
}

// HitTier reports which level served a cache lookup.
type HitTier int

const (
	// Computed: every tier missed; the cell was computed (locally or as
	// a fleet dispatch).
	Computed HitTier = iota
	// HitRAM: served from the in-process LRU, including joins on another
	// caller's in-flight computation (the work ran once, not per caller).
	HitRAM
	// HitDisk: missed RAM, served from the local disk store.
	HitDisk
	// HitShared: missed RAM and disk, served from the fleet-shared store
	// without dispatching to any worker.
	HitShared
)

// resolve serves one cell from the RAM cache, or fills the cache entry
// through lookup, then folds the resolution into the job's progress and
// the service's counters. It owns what an entry keeps: the canonical
// encoding only for a kind whose response is spliced from it, and the
// encoding's length either way. j may be nil: the worker-side /v1/cell
// path serves cells with no job behind them.
func (m *Manager) resolve(ctx context.Context, j *Job, c *cell) (resolved, error) {
	var stat dist.Stat
	var tier HitTier
	v, enc, hit, err := m.cache.Do(ctx, c.key, func() (any, []byte, int, error) {
		v, enc, t, err := m.lookup(ctx, c, &stat)
		if err != nil {
			return nil, nil, 0, err
		}
		tier = t
		if !c.kind.spliced {
			return v, nil, len(enc), nil
		}
		return v, enc, len(enc), nil
	})
	if err != nil {
		return resolved{}, err
	}
	if hit {
		tier = HitRAM
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
	return resolved{v, enc}, nil
}

// lookup finds a cell that missed RAM in the first tier that holds it,
// or computes it and writes its canonical encoding (json.Marshal of the
// value) into every tier. It returns the value, that encoding, and the
// level that served it. A value that does not encode fails the cell, which
// is then not cached. stat receives a fleet dispatch's record.
func (m *Manager) lookup(ctx context.Context, c *cell, stat *dist.Stat) (any, []byte, HitTier, error) {
	if v, enc, tier, ok := walkTiers(c.key, m.tiers, c.kind.decode); ok {
		return v, enc, tier, nil
	}
	v, err := m.compute(ctx, c, stat)
	if err != nil {
		return nil, nil, Computed, err
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, nil, Computed, err
	}
	for _, t := range m.tiers {
		if t != nil {
			t.Put(c.key, enc)
		}
	}
	return v, enc, Computed, nil
}

// walkTiers looks key up in tiers in order, skipping nil levels. The first
// stored value that decode accepts is returned with its canonical
// encoding and HitDisk+i for tiers[i] (the manager passes [disk,
// fleet-shared]), after that encoding is written back into every level
// before the one that held it. An entry that does not decode, or does not
// encode again — corrupt or alien bytes — is a miss and the walk moves
// on; ok is false when every level misses.
//
// Bytes from outside the process are never kept or written back verbatim:
// a level holding decodable but non-canonical bytes (extra whitespace, a
// trailing newline) still yields canonical ones.
func walkTiers(key string, tiers []Tier, decode func([]byte) (any, error)) (v any, enc []byte, tier HitTier, ok bool) {
	for i, t := range tiers {
		if t == nil {
			continue
		}
		b, ok := t.Get(key)
		if !ok {
			continue
		}
		v, err := decode(b)
		if err != nil {
			continue
		}
		enc, err := json.Marshal(v)
		if err != nil {
			continue
		}
		for _, up := range tiers[:i] {
			if up != nil {
				up.Put(key, enc)
			}
		}
		return v, enc, HitDisk + HitTier(i), true
	}
	return nil, nil, Computed, false
}

// compute runs a cell every tier missed: locally, or with a fleet
// configured by dispatching its CellRequest to a worker, whose answer is
// decoded like a tier's bytes.
func (m *Manager) compute(ctx context.Context, c *cell, stat *dist.Stat) (any, error) {
	if m.cfg.Fleet == nil {
		return c.kind.compute(m, ctx, c)
	}
	body, err := json.Marshal(c.req)
	if err != nil {
		return nil, err
	}
	raw, s, err := m.cfg.Fleet.Do(ctx, "/v1/cell", body)
	*stat = s
	if err != nil {
		return nil, err
	}
	v, err := c.kind.decode(raw)
	if err != nil {
		return nil, fmt.Errorf("serve: undecodable cell response from %s: %w", s.Worker, err)
	}
	return v, nil
}
