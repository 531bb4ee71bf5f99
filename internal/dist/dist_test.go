// Package dist_test proves the fleet's headline guarantee end to end: a
// sweep sharded over real ndaserve workers — healthy, flaky, or killed
// mid-run — merges to the exact bytes a single-process run produces.
// Workers are real serve.Managers behind httptest servers; faults are
// injected with dist.FaultProxy sitting between coordinator and worker.
package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nda/internal/core"
	"nda/internal/dist"
	"nda/internal/harness"
	"nda/internal/serve"
)

// tinySampling mirrors the serve e2e tests' reduced methodology: small
// enough that a 92-cell sweep finishes in seconds even under -race, large
// enough to exercise warmup, intervals, and skip phases.
func tinySampling() serve.SamplingSpec {
	return serve.SamplingSpec{
		Quick:        true,
		WarmInsts:    2_000,
		MeasureInsts: 2_000,
		SkipInsts:    1_000,
		Intervals:    3,
	}
}

// sweep92 is the acceptance sweep: all 23 SPEC proxies under three
// policies plus the in-order bound — 23 x 4 = 92 cells.
func sweep92() serve.SweepRequest {
	var pols []string
	for _, p := range core.All()[:3] {
		pols = append(pols, p.Name)
	}
	return serve.SweepRequest{Policies: pols, Sampling: tinySampling()}
}

// startWorker runs a simulating ndaserve in-process and returns its URL.
func startWorker(t *testing.T) string {
	t.Helper()
	m := serve.NewManager(serve.Config{JobWorkers: 1, SimWorkers: 2})
	srv := httptest.NewServer(serve.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		shutdown(t, m)
	})
	return srv.URL
}

func shutdown(t *testing.T, m *serve.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("manager shutdown: %v", err)
	}
}

// startCoordinator runs a coordinator-mode manager over the given worker
// URLs and returns its HTTP base URL plus the fleet for stats assertions.
func startCoordinator(t *testing.T, opts dist.Options, urls ...string) (string, *dist.Coordinator) {
	t.Helper()
	url, fleet, _ := startCoordinatorWith(t, serve.Config{}, opts, urls...)
	return url, fleet
}

// startCoordinatorWith is startCoordinator over a base manager config (its
// tiers, say); it also returns the manager.
func startCoordinatorWith(t *testing.T, cfg serve.Config, opts dist.Options, urls ...string) (string, *dist.Coordinator, *serve.Manager) {
	t.Helper()
	fleet, err := dist.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.JobWorkers, cfg.Fleet = 2, fleet
	m := serve.NewManager(cfg)
	srv := httptest.NewServer(serve.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		shutdown(t, m)
		fleet.Close()
	})
	return srv.URL, fleet, m
}

// post submits a request body and returns status and response bytes.
func post(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// golden computes a result once per process on a private single-process
// manager; every fleet test diffs its merged bytes against this.
var golden struct {
	once  sync.Once
	sweep []byte
}

func goldenSweep(t *testing.T) []byte {
	t.Helper()
	golden.once.Do(func() {
		m := serve.NewManager(serve.Config{JobWorkers: 1})
		defer func() { shutdown(t, m) }()
		srv := httptest.NewServer(serve.NewHandler(m))
		defer srv.Close()
		code, body := post(t, srv.URL+"/v1/sweep?wait=1", sweep92())
		if code != http.StatusOK {
			t.Fatalf("golden sweep = %d: %s", code, body)
		}
		golden.sweep = body
	})
	if golden.sweep == nil {
		t.Fatal("golden sweep unavailable (earlier failure)")
	}
	return golden.sweep
}

// fleetOpts is the baseline test tuning: generous per-attempt timeout (no
// accidental timeouts under -race), fast retries, no hedging unless a test
// asks for it.
func fleetOpts() dist.Options {
	return dist.Options{
		Window:      4,
		CellTimeout: 30 * time.Second,
		Retries:     5,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		HealthEvery: 50 * time.Millisecond,
		EvictAfter:  2,
	}
}

// TestFleetSweepByteIdentical: the headline acceptance test. The 92-cell
// sweep sharded over two healthy workers merges byte-identically to the
// single-process run, both workers actually serve cells, and the job's
// per-worker progress breakdown accounts for every cell.
func TestFleetSweepByteIdentical(t *testing.T) {
	want := goldenSweep(t)
	w1, w2 := startWorker(t), startWorker(t)
	coord, fleet := startCoordinator(t, fleetOpts(), w1, w2)

	// Submit async so the per-worker breakdown is observable on the job.
	code, body := post(t, coord+"/v1/sweep", sweep92())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, coord, st.ID)
	if st.TotalCells != 92 {
		t.Fatalf("sweep has %d cells, want 92", st.TotalCells)
	}

	code, got := get(t, coord+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet-merged sweep differs from single-process run:\nfleet: %.200s\nlocal: %.200s", got, want)
	}

	// Satellite: per-worker cell counts on the job status.
	if len(st.Workers) != 2 {
		t.Fatalf("job reports %d workers, want 2: %+v", len(st.Workers), st.Workers)
	}
	var done int64
	for _, wc := range st.Workers {
		if wc.Done == 0 {
			t.Errorf("worker %s served no cells; sharding is lopsided", wc.Worker)
		}
		if wc.Dispatched < wc.Done {
			t.Errorf("worker %s: dispatched %d < done %d", wc.Worker, wc.Dispatched, wc.Done)
		}
		done += wc.Done
	}
	if done != 92 {
		t.Errorf("per-worker done cells sum to %d, want 92", done)
	}
	for _, ws := range fleet.Stats() {
		if ws.Dispatched == 0 {
			t.Errorf("fleet stats: worker %s was never dispatched to", ws.Worker)
		}
	}
}

// waitJob polls the job endpoint until the job is terminal.
func waitJob(t *testing.T, base, id string) serve.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll = %d: %s", code, body)
		}
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case serve.JobDone:
			return st
		case serve.JobFailed, serve.JobCancelled:
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %d/%d cells", id, st.DoneCells, st.TotalCells)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetWorkerKilledMidSweep: one of two workers dies (connections
// abort, health probes included) once the sweep is underway. The fleet
// evicts it, retries its cells on the survivor, and still merges the
// exact single-process bytes.
func TestFleetWorkerKilledMidSweep(t *testing.T) {
	want := goldenSweep(t)
	w1, w2 := startWorker(t), startWorker(t)
	proxy, err := dist.NewFaultProxy(w2)
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(proxy)
	defer psrv.Close()
	coord, fleet := startCoordinator(t, fleetOpts(), w1, psrv.URL)

	code, body := post(t, coord+"/v1/sweep", sweep92())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Let the doomed worker serve part of the sweep, then kill it with
	// cells still outstanding.
	killDeadline := time.Now().Add(time.Minute)
	for proxy.Requests() < 8 {
		if time.Now().After(killDeadline) {
			t.Fatalf("proxy saw only %d requests; sweep never ramped up", proxy.Requests())
		}
		time.Sleep(time.Millisecond)
	}
	proxy.Kill()

	st = waitJob(t, coord, st.ID)
	code, got := get(t, coord+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep with a worker killed mid-run is not byte-identical to the single-process run")
	}

	var retried, evicted int64
	for _, ws := range fleet.Stats() {
		retried += ws.Retried
		evicted += ws.Evicted
	}
	if retried == 0 {
		t.Error("killing a worker mid-sweep caused no retries; the kill landed too late to test anything")
	}
	if evicted == 0 {
		t.Error("dead worker was never evicted from the rotation")
	}
	var done int64
	for _, wc := range st.Workers {
		done += wc.Done
	}
	if done != 92 {
		t.Errorf("per-worker done cells sum to %d, want 92", done)
	}
}

// TestFleetFlakyWorker: injected 500s, dropped connections, and added
// latency on one worker are absorbed by retries — same bytes, retry
// counters prove the faults actually fired.
func TestFleetFlakyWorker(t *testing.T) {
	want := goldenSweep(t)
	w1, w2 := startWorker(t), startWorker(t)
	proxy, err := dist.NewFaultProxy(w2)
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(proxy)
	defer psrv.Close()

	opts := fleetOpts()
	opts.HealthEvery = time.Hour // keep probes out of the Fail/Drop budgets
	opts.EvictAfter = 100        // recovery by retry alone, not eviction
	coord, fleet := startCoordinator(t, opts, w1, psrv.URL)

	proxy.Fail(3)
	proxy.Drop(2)
	proxy.Delay(2 * time.Millisecond)

	code, got := post(t, coord+"/v1/sweep?wait=1", sweep92())
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep through a flaky worker is not byte-identical to the single-process run")
	}
	if proxy.Faulted() < 5 {
		t.Errorf("proxy injected %d faults, want 5 (3 x 500 + 2 drops)", proxy.Faulted())
	}
	var retried int64
	for _, ws := range fleet.Stats() {
		retried += ws.Retried
	}
	if retried == 0 {
		t.Error("injected faults caused no retries")
	}
}

// TestFleetHedging: when every worker is slow, the straggler hedge fires
// and the cell still resolves correctly to the first response.
func TestFleetHedging(t *testing.T) {
	var proxies []*dist.FaultProxy
	var urls []string
	for i := 0; i < 2; i++ {
		p, err := dist.NewFaultProxy(startWorker(t))
		if err != nil {
			t.Fatal(err)
		}
		p.Delay(150 * time.Millisecond)
		srv := httptest.NewServer(p)
		defer srv.Close()
		proxies = append(proxies, p)
		urls = append(urls, srv.URL)
	}
	opts := fleetOpts()
	opts.HedgeAfter = 20 * time.Millisecond
	opts.HealthEvery = time.Hour
	fleet, err := dist.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	req, _ := json.Marshal(serve.CellRequest{
		Kind: "sweep", Workload: "exchange2", InOrder: true, Sampling: tinySampling(),
	})
	raw, stat, err := fleet.Do(context.Background(), "/v1/cell", req)
	if err != nil {
		t.Fatal(err)
	}
	var m harness.Measurement
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("hedged cell response undecodable: %v", err)
	}
	var hedged int64
	for _, ws := range fleet.Stats() {
		hedged += ws.Hedged
	}
	if hedged == 0 {
		t.Errorf("no hedge fired for a 150ms cell with a 20ms hedge trigger; attempts: %+v", stat.Attempts)
	}
}

// TestEvictionAndReadmission: a killed worker leaves the rotation after
// consecutive health-probe failures and rejoins once revived.
func TestEvictionAndReadmission(t *testing.T) {
	proxy, err := dist.NewFaultProxy(startWorker(t))
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(proxy)
	defer psrv.Close()

	opts := fleetOpts()
	opts.HealthEvery = 10 * time.Millisecond
	fleet, err := dist.New([]string{psrv.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	waitHealthy := func(want bool, phase string) dist.WorkerStats {
		deadline := time.Now().Add(10 * time.Second)
		for {
			ws := fleet.Stats()[0]
			if ws.Healthy == want {
				return ws
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: worker health stuck at %v, want %v (%+v)", phase, ws.Healthy, want, ws)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitHealthy(true, "startup")
	proxy.Kill()
	ws := waitHealthy(false, "after kill")
	if ws.Evicted == 0 {
		t.Error("worker marked unhealthy but eviction counter is 0")
	}
	proxy.Revive()
	ws = waitHealthy(true, "after revive")
	if ws.Readmitted == 0 {
		t.Error("worker re-admitted but readmission counter is 0")
	}

	// The readmitted worker serves again.
	req, _ := json.Marshal(serve.CellRequest{Kind: "gadget", Program: "meltdown"})
	if _, _, err := fleet.Do(context.Background(), "/v1/cell", req); err != nil {
		t.Fatalf("cell after readmission: %v", err)
	}
}

// TestFleetAttackAndGadgets: the other two cell kinds round-trip through
// the fleet byte-identically too.
func TestFleetAttackAndGadgets(t *testing.T) {
	local := startWorker(t)
	w1, w2 := startWorker(t), startWorker(t)
	coord, _ := startCoordinator(t, fleetOpts(), w1, w2)

	attackReq := serve.AttackRequest{Attacks: []string{"spectre-v1-cache"}, Policies: []string{"OoO", "Permissive"}}
	gadgetReq := serve.GadgetsRequest{Programs: []string{"meltdown", "gcc"}}
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/v1/attack?wait=1", attackReq},
		{"/v1/gadgets?wait=1", gadgetReq},
	} {
		code, want := post(t, local+c.path, c.req)
		if code != http.StatusOK {
			t.Fatalf("local %s = %d: %s", c.path, code, want)
		}
		code, got := post(t, coord+c.path, c.req)
		if code != http.StatusOK {
			t.Fatalf("fleet %s = %d: %s", c.path, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fleet %s differs from single-process run", c.path)
		}
	}
}

// TestFleetMetricsExposed: a coordinator's /metrics carries the per-worker
// fleet series alongside the service's own counters.
func TestFleetMetricsExposed(t *testing.T) {
	w1 := startWorker(t)
	coord, _ := startCoordinator(t, fleetOpts(), w1)
	code, got := post(t, coord+"/v1/gadgets?wait=1", serve.GadgetsRequest{Programs: []string{"meltdown"}})
	if code != http.StatusOK {
		t.Fatalf("gadgets = %d: %s", code, got)
	}
	code, body := get(t, coord+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	text := string(body)
	for _, series := range []string{
		"nda_dist_dispatched_total", "nda_dist_succeeded_total", "nda_dist_retried_total",
		"nda_dist_hedged_total", "nda_dist_evicted_total", "nda_dist_readmitted_total",
		"nda_dist_inflight", "nda_dist_healthy",
	} {
		if !strings.Contains(text, series+`{worker="`+w1+`"}`) {
			t.Errorf("metrics missing per-worker series %s", series)
		}
	}
	if !strings.Contains(text, fmt.Sprintf("nda_dist_dispatched_total{worker=%q} 1", w1)) {
		t.Errorf("dispatched counter not 1 after one cold cell:\n%s", text)
	}
}

// TestCoordinatorValidation: New refuses empty and duplicate fleets, and
// ParseWorkerURL normalizes trailing slashes.
func TestCoordinatorValidation(t *testing.T) {
	if _, err := dist.New(nil, dist.Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := dist.New([]string{"http://a:1", "http://a:1/"}, dist.Options{}); err == nil {
		t.Error("duplicate fleet (modulo trailing slash) accepted")
	}
	u, err := dist.ParseWorkerURL("http://a:1/")
	if err != nil || u != "http://a:1" {
		t.Errorf("ParseWorkerURL trailing slash = %q, %v", u, err)
	}
}
