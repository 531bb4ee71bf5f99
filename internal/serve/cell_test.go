package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nda/internal/harness"
)

// TestCellEndpoint: the worker side of the fleet protocol. One cell per
// kind round-trips with a decodable, deterministic body, and a repeated
// cell is served from the cache with identical bytes.
func TestCellEndpoint(t *testing.T) {
	m, srv := newTestServer(t)

	sweepCell := CellRequest{Kind: "sweep", Workload: "exchange2", Policy: "Permissive", Sampling: tinySampling()}
	resp, cold := post(t, srv.URL+"/v1/cell", sweepCell)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep cell = %d: %s", resp.StatusCode, cold)
	}
	var meas harness.Measurement
	if err := json.Unmarshal(cold, &meas); err != nil {
		t.Fatal(err)
	}
	if meas.Cycles == 0 || meas.Committed == 0 {
		t.Fatalf("sweep cell measured nothing: %+v", meas)
	}
	resp, warm := post(t, srv.URL+"/v1/cell", sweepCell)
	if resp.StatusCode != http.StatusOK || string(warm) != string(cold) {
		t.Fatalf("cached cell differs from cold cell (code %d)", resp.StatusCode)
	}
	if m.Metrics().CellsServed.Load() != 2 {
		t.Errorf("CellsServed = %d, want 2", m.Metrics().CellsServed.Load())
	}

	for _, c := range []CellRequest{
		{Kind: "sweep", Workload: "exchange2", InOrder: true, Sampling: tinySampling()},
		{Kind: "gadget", Program: "meltdown"},
		{Kind: "attack", Attack: "spectre-v1-cache", Policy: "OoO"},
	} {
		if resp, body := post(t, srv.URL+"/v1/cell", c); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s cell = %d: %s", c.Kind, resp.StatusCode, body)
		}
	}
}

// TestOnlySplicedKindsKeepEncodings: a RAM entry keeps its value's
// encoding only for the sweep kind, whose response is spliced from it.
// Attack and gadget entries hold just their value, still count their
// encoding's length in Cache.Bytes, and /v1/cell answers them, cold and
// warm, with the canonical bytes.
func TestOnlySplicedKindsKeepEncodings(t *testing.T) {
	m, srv := newTestServer(t)
	var want int64
	for _, req := range []CellRequest{
		{Kind: "sweep", Workload: "exchange2", Policy: "OoO", Sampling: tinySampling()},
		{Kind: "gadget", Program: "meltdown"},
		{Kind: "attack", Attack: "spectre-v1-cache", Policy: "OoO"},
	} {
		c, err := req.cell()
		if err != nil {
			t.Fatal(err)
		}
		var cold []byte
		for _, pass := range []string{"cold", "warm"} {
			resp, body := post(t, srv.URL+"/v1/cell", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s cell = %d: %s", pass, req.Kind, resp.StatusCode, body)
			}
			if cold == nil {
				cold = body
			} else if !bytes.Equal(body, cold) {
				t.Errorf("warm %s cell %s differs from cold %s", req.Kind, body, cold)
			}
		}
		m.cache.mu.Lock()
		e := m.cache.m[c.key]
		m.cache.mu.Unlock()
		canon := mustJSON("test", e.val)
		if !bytes.Equal(cold, append(canon, '\n')) {
			t.Errorf("%s cell answered %s, want its canonical bytes %s and a newline", req.Kind, cold, canon)
		}
		if kept := e.enc != nil; kept != (req.Kind == "sweep") || (kept && !bytes.Equal(e.enc, canon)) {
			t.Errorf("%s entry keeps encoding %q, want it kept only for the sweep kind", req.Kind, e.enc)
		}
		want += int64(len(canon))
	}
	if got := m.cache.Bytes(); got != want {
		t.Errorf("Cache.Bytes = %d, want %d: every entry's encoding length", got, want)
	}
}

// TestCellEndpointRejects: malformed cells are 400s with a reason, never
// 500s — a coordinator must be able to tell its own bugs (bad request)
// from a worker's (failed simulation).
func TestCellEndpointRejects(t *testing.T) {
	_, srv := newTestServer(t)

	cases := []struct {
		name string
		req  CellRequest
		want string
	}{
		{"unknown kind", CellRequest{Kind: "matrix"}, "unknown cell kind"},
		{"unknown workload", CellRequest{Kind: "sweep", Workload: "nope", Policy: "OoO"}, "unknown benchmark"},
		{"unknown policy", CellRequest{Kind: "sweep", Workload: "gcc", Policy: "nope"}, "unknown policy"},
		{"in-order with policy", CellRequest{Kind: "sweep", Workload: "gcc", InOrder: true, Policy: "OoO"}, "must not name a policy"},
		{"unknown attack", CellRequest{Kind: "attack", Attack: "nope"}, "unknown attack"},
		{"unknown program", CellRequest{Kind: "gadget", Program: "nope"}, "unknown program"},
	}
	for _, c := range cases {
		resp, body := post(t, srv.URL+"/v1/cell", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", c.name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, body, c.want)
		}
	}
}

// TestCacheLRUEviction: the cache holds its cap, evicts least-recently
// used first, reports evictions, and recomputes an evicted key.
func TestCacheLRUEviction(t *testing.T) {
	var evictions int
	c := NewCache(2, func(int) { evictions++ })
	compute := func(v int) func() (any, []byte, int, error) {
		return fill(func() (any, error) { return v, nil })
	}
	ctx := context.Background()
	c.Do(ctx, "a", compute(1))
	c.Do(ctx, "b", compute(2))
	c.Do(ctx, "a", nil) // touch: "b" is now the eviction candidate
	c.Do(ctx, "c", compute(3))
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want cap 2", c.Len())
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if _, _, hit, _ := c.Do(ctx, "a", compute(10)); !hit {
		t.Error("recently-touched entry was evicted instead of the LRU one")
	}
	v, _, hit, _ := c.Do(ctx, "b", compute(20))
	if hit || v.(int) != 20 {
		t.Errorf("evicted key: v=%v hit=%v, want recompute to 20", v, hit)
	}
}

// TestCacheEvictionMetric: a capped manager cache reports evictions on
// /metrics as nda_cache_evictions_total.
func TestCacheEvictionMetric(t *testing.T) {
	m := NewManager(Config{QueueDepth: 8, JobWorkers: 1, CacheMaxEntries: 1})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	for _, prog := range []string{"meltdown", "ssb"} {
		resp, body := post(t, srv.URL+"/v1/cell", CellRequest{Kind: "gadget", Program: prog})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gadget cell %s = %d: %s", prog, resp.StatusCode, body)
		}
	}
	if got := m.Metrics().CacheEvictions.Load(); got != 1 {
		t.Errorf("CacheEvictions = %d, want 1 with a 1-entry cache and 2 distinct cells", got)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "nda_cache_evictions_total 1") {
		t.Error("/metrics does not report nda_cache_evictions_total 1")
	}
}

// crashBodies are small bodies whose sampling spec asks for 2^40
// intervals. Before the interval ceiling existed, the fold pre-sized its
// sample buffer from that count and the process died out of memory.
var crashBodies = map[string]string{
	"/v1/sweep": `{"workloads":["gcc"],"policies":["OoO"],"no_in_order":true,"sampling":{"quick":true,"intervals":1099511627776}}`,
	"/v1/cell":  `{"kind":"sweep","workload":"gcc","policy":"OoO","sampling":{"quick":true,"intervals":1099511627776}}`,
}

// TestOversizedIntervalsRejected: a sampling spec above the interval
// ceiling is a 400 on the job and cell paths alike, and the server keeps
// serving afterwards.
func TestOversizedIntervalsRejected(t *testing.T) {
	_, srv := newTestServer(t)
	for path, body := range crashBodies {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := readAll(resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "intervals") {
			t.Errorf("%s: code = %d (%s), want 400 naming the intervals limit", path, resp.StatusCode, out)
		}
	}
	resp, body := post(t, srv.URL+"/v1/cell", CellRequest{Kind: "sweep", Workload: "gcc", Policy: "OoO", Sampling: tinySampling()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cell after the rejected bodies = %d: %s", resp.StatusCode, body)
	}
}
