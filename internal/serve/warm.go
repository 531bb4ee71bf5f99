package serve

import (
	"context"
	"encoding/json"

	"nda/internal/tenant"
)

// Cache warming: POST /v1/warm (or ndaserve -warm-from at boot) submits
// one job that runs the plans of a set of standard requests in sequence.
// Every cell resolves through the usual tier chain, so warming a
// store-backed service after a restart replays the persisted results into
// RAM without running a single simulation, and warming a cold service
// performs the simulations once so every later request is a hit.

// WarmRequest lists the work to precompute. An empty request (no sweeps,
// attacks, or gadget censuses) means StandardWarm: the paper's standard
// figure set.
type WarmRequest struct {
	Sweeps  []SweepRequest   `json:"sweeps,omitempty"`
	Attacks []AttackRequest  `json:"attacks,omitempty"`
	Gadgets []GadgetsRequest `json:"gadgets,omitempty"`
}

func (r WarmRequest) empty() bool {
	return len(r.Sweeps) == 0 && len(r.Attacks) == 0 && len(r.Gadgets) == 0
}

// StandardWarm is the default warming set: the full performance sweep
// (every workload under every configuration, standard sampling), the full
// security matrix, and the complete gadget census — the cells behind the
// paper's headline figures, exactly as the API defaults produce them.
func StandardWarm() WarmRequest {
	return WarmRequest{
		Sweeps:  []SweepRequest{{}},
		Attacks: []AttackRequest{{}},
		Gadgets: []GadgetsRequest{{}},
	}
}

// WarmResponse summarizes a finished warm job: how many cells were
// resolved and which tier served each one. After a restart over a
// populated store, Tiers.Disk equals Cells and the simulation counter on
// /metrics has not moved.
type WarmResponse struct {
	Cells int64      `json:"cells"`
	Tiers TierCounts `json:"tiers"`
}

// SubmitWarm validates and enqueues a warm job. Sub-requests run
// sequentially in request order (each one fans its own cells out over the
// simulation pool, so there is no parallelism left on the table), under a
// single job whose progress counters accumulate across all of them.
// Warm jobs always run in the warm scheduling class: precomputation yields
// to every tenant's interactive and batch traffic.
func (m *Manager) SubmitWarm(req WarmRequest, opts ...SubmitOpts) (*Job, error) {
	if req.empty() {
		req = StandardWarm()
	}
	// Validate every sub-request up front: a warm job must fail at submit
	// time, not midway through hours of precomputation.
	var plans []*plan
	add := func(p *plan, err error) error {
		plans = append(plans, p)
		return err
	}
	for _, r := range req.Sweeps {
		if err := add(r.plan()); err != nil {
			return nil, err
		}
	}
	for _, r := range req.Attacks {
		if err := add(r.plan()); err != nil {
			return nil, err
		}
	}
	for _, r := range req.Gadgets {
		if err := add(r.plan()); err != nil {
			return nil, err
		}
	}
	o := resolveOpts(opts)
	o.Class = tenant.Warm
	return m.enqueueAs("warm", o, nil, func(ctx context.Context, j *Job) ([]byte, error) {
		// Warming only resolves: no sub-request's response is assembled.
		for _, p := range plans {
			if _, err := m.resolveAll(ctx, j, p); err != nil {
				return nil, err
			}
		}
		st := j.Status()
		return json.Marshal(&WarmResponse{Cells: st.DoneCells, Tiers: st.Tiers})
	})
}
