package load

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nda/internal/serve"
)

// Mix names a request-shape profile the generator replays. Each mix is a
// deterministic function of (tenant index, worker index, sequence number),
// so every run issues the identical request stream.
type Mix string

const (
	// MixHot replays one identical quick sweep over and over: after the
	// first completion every cell is a RAM-cache hit, so hot latency
	// measures the serving path, not the simulator.
	MixHot Mix = "hot"
	// MixLongtail issues sweeps whose sampling windows vary per request:
	// almost every submission simulates fresh cells, the realistic
	// worst case for queue pressure.
	MixLongtail Mix = "longtail"
	// MixAttack alternates small security-matrix requests.
	MixAttack Mix = "attack"
	// MixGadgets alternates static gadget censuses — no simulation at all,
	// the cheapest job kind.
	MixGadgets Mix = "gadgets"
	// MixCancel submits long-tail sweeps and cancels them immediately,
	// exercising the queue-removal path under contention.
	MixCancel Mix = "cancel"
)

// ParseMix validates a mix name; the empty string means MixHot.
func ParseMix(s string) (Mix, error) {
	switch Mix(s) {
	case "", MixHot:
		return MixHot, nil
	case MixLongtail, MixAttack, MixGadgets, MixCancel:
		return Mix(s), nil
	}
	return "", fmt.Errorf("load: unknown mix %q (want hot, longtail, attack, gadgets, or cancel)", s)
}

// request is one generated submission.
type request struct {
	path       string // "/v1/sweep", "/v1/attack", "/v1/gadgets"
	body       []byte
	cancelling bool // submit async, then DELETE the job
}

// quickSampling is the reduced methodology every generated sweep runs
// under — small enough that a cell simulates in milliseconds.
func quickSampling() serve.SamplingSpec {
	return serve.SamplingSpec{
		Quick:        true,
		WarmInsts:    2_000,
		MeasureInsts: 2_000,
		SkipInsts:    1_000,
		Intervals:    3,
	}
}

// hotSweep is the single request body MixHot replays.
func hotSweep() serve.SweepRequest {
	return serve.SweepRequest{
		Workloads: []string{"exchange2"},
		Policies:  []string{"OoO", "Permissive"},
		Sampling:  quickSampling(),
	}
}

// longtailSweep varies the warm-up window so each request resolves to
// (mostly) fresh cache keys. The offset stays bounded: simulation cost per
// cell is constant-ish, and the key space wraps after a few thousand
// distinct cells — a long tail, not an infinite one.
func longtailSweep(tenantIdx, workerIdx, seq int) serve.SweepRequest {
	s := quickSampling()
	offset := uint64(tenantIdx*1009+workerIdx*101+seq*7) % 5000
	s.WarmInsts += offset
	return serve.SweepRequest{
		Workloads: []string{"exchange2"},
		Policies:  []string{"OoO"},
		NoInOrder: true,
		Sampling:  s,
	}
}

var attackNames = []string{"spectre-v1-cache", "meltdown"}

// gen produces one tenant worker's deterministic request stream.
type gen struct {
	mix                  Mix
	tenantIdx, workerIdx int
	seq                  int
}

// next returns the worker's next request.
func (g *gen) next() request {
	seq := g.seq
	g.seq++
	switch g.mix {
	case MixLongtail:
		return request{path: "/v1/sweep", body: mustJSON(longtailSweep(g.tenantIdx, g.workerIdx, seq))}
	case MixAttack:
		return request{path: "/v1/attack", body: mustJSON(serve.AttackRequest{
			Attacks:   []string{attackNames[seq%len(attackNames)]},
			Policies:  []string{"OoO"},
			NoInOrder: true,
		})}
	case MixGadgets:
		return request{path: "/v1/gadgets", body: mustJSON(serve.GadgetsRequest{
			Programs: []string{attackNames[seq%len(attackNames)]},
		})}
	case MixCancel:
		return request{
			path:       "/v1/sweep",
			body:       mustJSON(longtailSweep(g.tenantIdx, g.workerIdx, seq)),
			cancelling: true,
		}
	default: // MixHot
		return request{path: "/v1/sweep", body: mustJSON(hotSweep())}
	}
}

// warmupRequests enumerates the distinct requests a mix replays, for the
// unmeasured cache-warming pass: one period of a generator's stream, which
// for the warmable mixes does not depend on the tenant or worker. Long-tail
// and cancel mixes are deliberately unwarmable — their point is fresh work.
func warmupRequests(mix Mix) []request {
	if mix == MixLongtail || mix == MixCancel {
		return nil
	}
	g := gen{mix: mix}
	reqs := []request{g.next()}
	for r := g.next(); !bytes.Equal(r.body, reqs[0].body); r = g.next() {
		reqs = append(reqs, r)
	}
	return reqs
}

// mustJSON marshals a request body; the types above cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
