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
)

// tinySampling is the reduced methodology the e2e tests run under; small
// enough that a sweep cell takes milliseconds, explicit enough that it
// exercises every override field.
func tinySampling() SamplingSpec {
	return SamplingSpec{
		Quick:        true,
		WarmInsts:    2_000,
		MeasureInsts: 2_000,
		SkipInsts:    1_000,
		Intervals:    3,
	}
}

func newTestServer(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(Config{QueueDepth: 8, JobWorkers: 2, SimWorkers: 2})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m, srv
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthzAndMetrics(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}
	var health map[string]string
	if err := json.Unmarshal(body, &health); err != nil || health["status"] != "ok" {
		t.Fatalf("healthz body %q (%v)", body, err)
	}
	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, name := range []string{"nda_jobs_queued_total", "nda_cache_hits_total", "nda_cycles_per_second"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("metrics output missing %s", name)
		}
	}
}

// TestSweepSubmitPollResult is the async e2e path: submit, watch the job
// progress through the status endpoint, fetch the result when done.
func TestSweepSubmitPollResult(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := post(t, srv.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"exchange2"},
		Policies:  []string{"OoO", "Permissive"},
		Sampling:  tinySampling(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != "sweep" {
		t.Fatalf("submit status = %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		if st.State == JobFailed || st.State == JobCancelled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
		resp, body = get(t, srv.URL+"/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll = %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	// 3 cells: two policies plus the in-order bound.
	if st.TotalCells != 3 || st.DoneCells != 3 {
		t.Errorf("cells = %d/%d, want 3/3", st.DoneCells, st.TotalCells)
	}

	resp, body = get(t, srv.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	var sweep SweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Sweep == nil || sweep.Sweep.Get("OoO", "exchange2") == nil || sweep.Sweep.Get("In-Order", "exchange2") == nil {
		t.Fatalf("sweep result incomplete: %s", body)
	}
	if sweep.Overheads["Permissive"] == 0 && sweep.Overheads["In-Order"] == 0 {
		t.Errorf("overheads missing: %+v", sweep.Overheads)
	}

	// The job index lists it; an unknown ID is a 404.
	resp, body = get(t, srv.URL+"/v1/jobs")
	var all []Status
	if err := json.Unmarshal(body, &all); err != nil || len(all) != 1 {
		t.Errorf("job listing = %s (%v)", body, err)
	}
	if resp, _ := get(t, srv.URL+"/v1/jobs/job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestSweepCachedResponseByteIdentical is the PR's acceptance test: a
// repeated identical sweep is served from the cache — the simulation
// counter does not move, the hit counter does — and its response bytes are
// identical to the cold run's.
func TestSweepCachedResponseByteIdentical(t *testing.T) {
	m, srv := newTestServer(t)
	req := SweepRequest{
		Workloads: []string{"exchange2", "xz"},
		Policies:  []string{"OoO"},
		Sampling:  tinySampling(),
	}

	resp, cold := post(t, srv.URL+"/v1/sweep?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run = %d: %s", resp.StatusCode, cold)
	}
	sims := m.Metrics().Simulations.Load()
	misses := m.Metrics().CacheMisses.Load()
	if sims == 0 || misses != sims {
		t.Fatalf("cold run: %d simulations, %d misses", sims, misses)
	}

	resp, warm := post(t, srv.URL+"/v1/sweep?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run = %d: %s", resp.StatusCode, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cached response differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := m.Metrics().Simulations.Load(); got != sims {
		t.Errorf("warm run re-simulated: %d -> %d simulations", sims, got)
	}
	if hits := m.Metrics().CacheHits.Load(); hits != sims {
		t.Errorf("CacheHits = %d, want %d (every cold cell reused)", hits, sims)
	}

	// Cross-request cell reuse: a subset sweep after the full one is all
	// hits too — the cache is per cell, not per request.
	resp, _ = post(t, srv.URL+"/v1/sweep?wait=1", SweepRequest{
		Workloads: []string{"xz"},
		Policies:  []string{"OoO"},
		Sampling:  tinySampling(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subset run = %d", resp.StatusCode)
	}
	if got := m.Metrics().Simulations.Load(); got != sims {
		t.Errorf("subset sweep re-simulated shared cells: %d -> %d", sims, got)
	}
}

// TestGadgetsEndpoint: the census path end to end, with the second request
// served from the cache.
func TestGadgetsEndpoint(t *testing.T) {
	m, srv := newTestServer(t)
	req := GadgetsRequest{Programs: []string{"spectre-v1-cache", "meltdown"}}
	resp, cold := post(t, srv.URL+"/v1/gadgets?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gadgets = %d: %s", resp.StatusCode, cold)
	}
	var report struct {
		Programs []struct {
			Name string `json:"name"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(cold, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Programs) != 2 || report.Programs[0].Name != "spectre-v1-cache" {
		t.Fatalf("census incomplete: %s", cold)
	}
	resp, warm := post(t, srv.URL+"/v1/gadgets?wait=1", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Errorf("cached census differs (status %d)", resp.StatusCode)
	}
	if m.Metrics().CacheHits.Load() != 2 {
		t.Errorf("CacheHits = %d, want 2", m.Metrics().CacheHits.Load())
	}
}

// TestAttackEndpoint: one security-matrix cell end to end; the verdict must
// match the paper's table (zero mismatches).
func TestAttackEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := post(t, srv.URL+"/v1/attack?wait=1", AttackRequest{
		Attacks:   []string{"spectre-v1-cache"},
		Policies:  []string{"OoO"},
		NoInOrder: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attack = %d: %s", resp.StatusCode, body)
	}
	var ar AttackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Cells) != 1 || ar.Mismatches != 0 {
		t.Fatalf("attack response = %d cells, %d mismatches: %s", len(ar.Cells), ar.Mismatches, body)
	}
	if ar.Cells[0].Outcome == nil || !ar.Cells[0].Outcome.Leaked {
		t.Error("spectre v1 on insecure OoO must leak")
	}
}

// TestBadRequests: malformed bodies and unknown names answer 400 without
// creating a job.
func TestBadRequests(t *testing.T) {
	m, srv := newTestServer(t)
	cases := []struct {
		path string
		body string
	}{
		{"/v1/sweep", `{"workloads":["no-such-workload"]}`},
		{"/v1/sweep", `{"unknown_field":1}`},
		{"/v1/sweep", `{"policies":["NoSuchPolicy"]}`},
		{"/v1/attack", `{"attacks":["no-such-attack"]}`},
		{"/v1/gadgets", `{"programs":["no-such-program"]}`},
		{"/v1/sweep", `{"workloads":["gcc","mcf","gcc"]}`},
		{"/v1/sweep", `not json`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	if n := len(m.JobsFor("")); n != 0 {
		t.Errorf("%d jobs created by invalid requests", n)
	}
}

// TestQueueFullAnswers429: with the workers parked and the queue full, a
// new submission gets the backpressure status, not a hang.
func TestQueueFullAnswers429(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1, JobWorkers: 1})
	srv := httptest.NewServer(NewHandler(m))
	release := make(chan struct{})
	t.Cleanup(func() {
		srv.Close()
		close(release)
		m.Shutdown(context.Background())
	})
	running := blockingJob(t, m, release)
	waitRunning(t, running)
	blockingJob(t, m, release) // fills the single queue slot

	resp, body := post(t, srv.URL+"/v1/sweep", SweepRequest{Workloads: []string{"exchange2"}, Sampling: tinySampling()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue = %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Errorf("429 body %q (%v)", body, err)
	}
}

// TestWaitResultMatchesPolledResult: the ?wait=1 body and the result
// endpoint serve the same stored bytes.
func TestWaitResultMatchesPolledResult(t *testing.T) {
	_, srv := newTestServer(t)
	req := GadgetsRequest{Programs: []string{"meltdown"}}
	resp, waited := post(t, srv.URL+"/v1/gadgets?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait = %d", resp.StatusCode)
	}
	var all []Status
	_, body := get(t, srv.URL+"/v1/jobs")
	if err := json.Unmarshal(body, &all); err != nil || len(all) != 1 {
		t.Fatalf("listing = %s (%v)", body, err)
	}
	_, polled := get(t, srv.URL+"/v1/jobs/"+all[0].ID+"/result")
	if !bytes.Equal(waited, polled) {
		t.Errorf("wait body and result endpoint differ:\n%s\n%s", waited, polled)
	}
}
