package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nda/internal/tenant"
)

// newTenantServer is newTestServer with a caller-chosen config (tenants,
// queue shape, heartbeat).
func newTenantServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m, srv
}

// postKey posts a JSON body with an X-API-Key header.
func postKey(t *testing.T, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var b bytes.Buffer
	_, err := b.ReadFrom(resp.Body)
	return b.Bytes(), err
}

func twoTenants() []tenant.Tenant {
	return []tenant.Tenant{
		{Name: "alice", Key: "key-a", Weight: 5},
		{Name: "bob", Key: "key-b", Weight: 1},
	}
}

// TestFIFOVsFairShareByteIdentical is the tentpole's determinism
// acceptance: the scheduler decides only *when* a job runs, never *what* it
// computes, so an untenanted FIFO manager and a tenanted fair-share one
// produce byte-identical sweep results.
func TestFIFOVsFairShareByteIdentical(t *testing.T) {
	req := SweepRequest{
		Workloads: []string{"exchange2"},
		Policies:  []string{"OoO", "Permissive"},
		Sampling:  tinySampling(),
	}
	run := func(cfg Config, opts ...SubmitOpts) []byte {
		m := NewManager(cfg)
		defer m.Shutdown(context.Background())
		j, err := m.SubmitSweep(req, opts...)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, JobDone)
		res, ok := j.Result()
		if !ok {
			t.Fatal("done job has no result")
		}
		return res
	}
	fifo := run(Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2})
	fair := run(Config{QueueDepth: 4, JobWorkers: 2, SimWorkers: 2, Tenants: twoTenants()},
		SubmitOpts{Tenant: "alice", Class: tenant.Interactive})
	if !bytes.Equal(fifo, fair) {
		t.Errorf("fair-share result differs from FIFO result:\nfifo: %s\nfair: %s", fifo, fair)
	}
}

// TestFairShareDispatchOrder pins the serve-layer dispatch sequence: with
// one worker held and a 3:1 weight split backlogged behind it, jobs leave
// the queue in the stride order, not submission order.
func TestFairShareDispatchOrder(t *testing.T) {
	m := NewManager(Config{QueueDepth: 16, JobWorkers: 1, Tenants: []tenant.Tenant{
		{Name: "heavy", Key: "kh", Weight: 3},
		{Name: "light", Key: "kl", Weight: 1},
	}})
	defer m.Shutdown(context.Background())

	release := make(chan struct{})
	blocker := blockingJob(t, m, release)
	waitRunning(t, blocker)

	var mu sync.Mutex
	var got []string
	jobs := make([]*Job, 0, 8)
	submit := func(name string) {
		j, err := m.enqueueAs("test", SubmitOpts{Tenant: name, Class: tenant.Batch}, nil,
			func(ctx context.Context, j *Job) ([]byte, error) {
				mu.Lock()
				got = append(got, name[:1])
				mu.Unlock()
				return []byte(`"ok"`), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Submission order is light-first; dispatch order must not be.
	for i := 0; i < 4; i++ {
		submit("light")
	}
	for i := 0; i < 4; i++ {
		submit("heavy")
	}
	close(release)
	for _, j := range jobs {
		waitState(t, j, JobDone)
	}

	// Stride trace for weights 3:1, both batch, heavy first in scan order:
	// tie at 0 goes to heavy, then light, then heavy pulls ahead 3:1 until
	// its backlog drains and the remaining light jobs run.
	want := "h,l,h,h,h,l,l,l"
	mu.Lock()
	order := strings.Join(got, ",")
	mu.Unlock()
	if order != want {
		t.Errorf("dispatch order = %s, want %s", order, want)
	}
}

// TestTenantAuthOverHTTP: tenanted deployments require a key on every
// submission; both header forms work; unknown keys and missing keys are
// 401s; the job status carries the owning tenant.
func TestTenantAuthOverHTTP(t *testing.T) {
	_, srv := newTenantServer(t, Config{QueueDepth: 8, JobWorkers: 2, Tenants: twoTenants()})
	req := GadgetsRequest{Programs: []string{"meltdown"}}

	resp, body := postKey(t, srv.URL+"/v1/gadgets", "", req)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing key = %d: %s", resp.StatusCode, body)
	}
	resp, body = postKey(t, srv.URL+"/v1/gadgets", "no-such-key", req)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key = %d: %s", resp.StatusCode, body)
	}

	// The fleet's work unit simulates too, so it is keyed like the job
	// endpoints; with a key it answers the cell.
	cellReq := CellRequest{Kind: "gadget", Program: "meltdown"}
	resp, body = postKey(t, srv.URL+"/v1/cell", "", cellReq)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless cell = %d: %s", resp.StatusCode, body)
	}
	resp, body = postKey(t, srv.URL+"/v1/cell", "key-a", cellReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed cell = %d: %s", resp.StatusCode, body)
	}

	resp, body = postKey(t, srv.URL+"/v1/gadgets", "key-a", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("X-API-Key submit = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" || st.Class != tenant.Batch {
		t.Errorf("status tenant/class = %q/%q, want alice/batch", st.Tenant, st.Class)
	}

	// Authorization: Bearer is equivalent; ?wait=1 defaults to interactive.
	hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/gadgets?wait=1", strings.NewReader(`{"programs":["meltdown"]}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Authorization", "Bearer key-b")
	resp2, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := readAll(resp2); resp2.StatusCode != http.StatusOK {
		t.Fatalf("Bearer wait submit = %d: %s", resp2.StatusCode, body)
	}

	// A bad class name is a 400, not a silent default.
	resp, body = postKey(t, srv.URL+"/v1/gadgets?class=bogus", "key-a", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad class = %d: %s", resp.StatusCode, body)
	}

	// Health and metrics stay unauthenticated.
	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz behind auth: %d", resp.StatusCode)
	}
}

// TestQuotaRejectsWithRetryAfter: a tenant past its token bucket gets a 429
// carrying a Retry-After hint, and the drop is visible in the quota counter
// and the per-tenant metrics block.
func TestQuotaRejectsWithRetryAfter(t *testing.T) {
	m, srv := newTenantServer(t, Config{QueueDepth: 8, JobWorkers: 2, Tenants: []tenant.Tenant{
		{Name: "alice", Key: "key-a", Weight: 1, Rate: 1, Burst: 1},
		{Name: "bob", Key: "key-b", Weight: 1},
	}})
	req := GadgetsRequest{Programs: []string{"meltdown"}}

	resp, body := postKey(t, srv.URL+"/v1/gadgets", "key-a", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, body)
	}
	resp, body = postKey(t, srv.URL+"/v1/gadgets", "key-a", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "quota") {
		t.Errorf("429 body %q (%v)", body, err)
	}
	if got := m.Metrics().QuotaRejected.Load(); got != 1 {
		t.Errorf("QuotaRejected = %d, want 1", got)
	}

	// An unlimited tenant is unaffected by alice's exhaustion.
	if resp, body := postKey(t, srv.URL+"/v1/gadgets", "key-b", req); resp.StatusCode != http.StatusAccepted {
		t.Errorf("bob submit = %d: %s", resp.StatusCode, body)
	}

	// The per-tenant series render with the drop attributed to alice.
	_, metrics := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`nda_tenant_dropped_total{tenant="alice"} 1`,
		`nda_tenant_dropped_total{tenant="bob"} 0`,
		`nda_tenant_queued{tenant="alice"}`,
		"nda_jobs_quota_rejected_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestStoreAwareAdmission: a saturated queue still admits a job whose every
// cell is already resolvable from the cache — it runs outside the worker
// pool, counts toward the admission counter, and answers byte-identically —
// while an uncached job keeps getting the 429 signal.
func TestStoreAwareAdmission(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1, JobWorkers: 1, SimWorkers: 2})
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		m.Shutdown(context.Background())
	})
	req := SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, Sampling: tinySampling()}

	// Warm the cache with the sweep's cells.
	j1, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, JobDone)
	cold, _ := j1.Result()

	// Saturate: one job running, one filling the single queue slot.
	running := blockingJob(t, m, release)
	waitRunning(t, running)
	blockingJob(t, m, release)

	// An uncached job bounces...
	_, err = m.SubmitSweep(SweepRequest{Workloads: []string{"xz"}, Policies: []string{"OoO"}, Sampling: tinySampling()})
	if err != ErrQueueFull {
		t.Fatalf("uncached submit on full queue = %v, want ErrQueueFull", err)
	}
	// ...the fully-cached repeat does not.
	j2, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatalf("cached submit on full queue = %v, want admission", err)
	}
	waitState(t, j2, JobDone)
	warm, _ := j2.Result()
	if !bytes.Equal(cold, warm) {
		t.Errorf("bypass-admitted result differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := m.Metrics().AdmissionStoreServed.Load(); got != 1 {
		t.Errorf("AdmissionStoreServed = %d, want 1", got)
	}
	if got := m.Metrics().JobsRejected.Load(); got != 1 {
		t.Errorf("JobsRejected = %d, want 1 (the uncached submission)", got)
	}
}

// TestSlowSubscriberNeverBlocksJob: a watcher that never comes back must
// not slow the fold path — every update only closes the channel the
// watcher took, and the watcher finds it closed.
func TestSlowSubscriberNeverBlocksJob(t *testing.T) {
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1})
	defer m.Shutdown(context.Background())

	gate := make(chan struct{})
	j, err := m.enqueue("test", func(ctx context.Context, j *Job) (any, error) {
		<-gate
		for i := 0; i < 10_000; i++ {
			j.update(func() bool { return true }) // a cell completion's status change
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, changed := j.watch() // never drained
	close(gate)
	waitState(t, j, JobDone) // would time out if update ever blocked
	select {
	case <-changed:
	default:
		t.Error("watcher's channel still open after 10,000 updates")
	}
}

// TestUnwatchedUpdateAllocatesNothing: with no watcher, publishing a
// change costs no allocation — the change channel is made only on demand.
func TestUnwatchedUpdateAllocatesNothing(t *testing.T) {
	j := &Job{state: JobRunning, doneCh: make(chan struct{})}
	if n := testing.AllocsPerRun(1000, func() { j.cellDone(HitRAM, nil) }); n != 0 {
		t.Errorf("update on an unwatched job allocates %.1f times, want 0", n)
	}
	_, before, changed := j.watch()
	j.cellDone(Computed, nil)
	select {
	case <-changed:
	default:
		t.Fatal("a change after watch left the watcher's channel open")
	}
	if st, ver, _ := j.watch(); ver != before+1 || st.DoneCells != 1002 || st.Tiers.Computed != 1 {
		t.Errorf("after watch and one more cell: version %d (want %d), status %+v", ver, before+1, st)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    int64
	event string
	data  string
}

// readSSE consumes a stream until a done event (or EOF) and returns the
// events seen. Comment heartbeats are counted, not returned.
func readSSE(t *testing.T, resp *http.Response) (events []sseEvent, heartbeats int) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	cur := sseEvent{id: -1}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events, heartbeats
				}
			}
			cur = sseEvent{id: -1}
		case strings.HasPrefix(line, ": "):
			heartbeats++
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad event id line %q", line)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events, heartbeats
}

// TestSSEStream: ?stream=1 pushes progress events with monotonically
// increasing ids and valid status payloads, ends with an explicit done
// event, and Last-Event-ID resume replays nothing the client already saw.
func TestSSEStream(t *testing.T) {
	_, srv := newTenantServer(t, Config{QueueDepth: 8, JobWorkers: 2, SimWorkers: 2})
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

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	events, _ := readSSE(t, sresp)
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want >= 2 (progress + done)", len(events))
	}
	last := events[len(events)-1]
	if last.event != "done" || !strings.Contains(last.data, string(JobDone)) {
		t.Fatalf("final event = %+v, want done", last)
	}
	prevID := int64(-1)
	for _, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Errorf("unexpected event %q before done", ev.event)
		}
		if ev.id <= prevID {
			t.Errorf("event ids not increasing: %d after %d", ev.id, prevID)
		}
		prevID = ev.id
		var ps Status
		if err := json.Unmarshal([]byte(ev.data), &ps); err != nil || ps.ID != st.ID {
			t.Errorf("progress payload %q (%v)", ev.data, err)
		}
	}
	final := events[len(events)-2]
	var ps Status
	if err := json.Unmarshal([]byte(final.data), &ps); err != nil {
		t.Fatal(err)
	}
	if ps.State != JobDone || ps.DoneCells != ps.TotalCells {
		t.Errorf("final progress snapshot %+v, want done with all cells", ps)
	}

	// Resume past the end: a client that saw everything gets only the done
	// marker, no replayed progress.
	rreq, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rreq.Header.Set("Last-Event-ID", strconv.FormatInt(last.id, 10))
	rresp, err := http.DefaultClient.Do(rreq)
	if err != nil {
		t.Fatal(err)
	}
	revents, _ := readSSE(t, rresp)
	if len(revents) != 1 || revents[0].event != "done" {
		t.Errorf("resume replayed %+v, want exactly one done event", revents)
	}
}

// doKey performs a bodyless exchange with an optional X-API-Key header.
func doKey(t *testing.T, method, url, key string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestJobEndpointsTenantScoped: on a tenanted deployment the read side is
// authenticated too — job listing, status, stream, result, and cancel all
// 401 without a key, and another tenant's job IDs answer 404 exactly like
// IDs that were never issued, so the sequential job namespace leaks
// nothing across tenants.
func TestJobEndpointsTenantScoped(t *testing.T) {
	_, srv := newTenantServer(t, Config{QueueDepth: 8, JobWorkers: 2, Tenants: twoTenants()})
	resp, body := postKey(t, srv.URL+"/v1/gadgets", "key-a", GadgetsRequest{Programs: []string{"meltdown"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	jobURL := srv.URL + "/v1/jobs/" + st.ID

	// Keyless reads are 401s, same as keyless submissions.
	for _, c := range []struct{ method, url string }{
		{http.MethodGet, srv.URL + "/v1/jobs"},
		{http.MethodGet, jobURL},
		{http.MethodGet, jobURL + "?stream=1"},
		{http.MethodGet, jobURL + "/result"},
		{http.MethodDelete, jobURL},
	} {
		if resp, body := doKey(t, c.method, c.url, ""); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("keyless %s %s = %d: %s", c.method, c.url, resp.StatusCode, body)
		}
	}
	// Another tenant's key sees alice's job ID as never issued.
	for _, c := range []struct{ method, url string }{
		{http.MethodGet, jobURL},
		{http.MethodGet, jobURL + "?stream=1"},
		{http.MethodGet, jobURL + "/result"},
		{http.MethodDelete, jobURL},
	} {
		if resp, body := doKey(t, c.method, c.url, "key-b"); resp.StatusCode != http.StatusNotFound {
			t.Errorf("cross-tenant %s %s = %d: %s", c.method, c.url, resp.StatusCode, body)
		}
	}

	// The owner polls until done, then reads the result.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = doKey(t, http.MethodGet, jobURL, "key-a")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("owner poll = %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := doKey(t, http.MethodGet, jobURL+"/result", "key-a"); resp.StatusCode != http.StatusOK {
		t.Errorf("owner result = %d: %s", resp.StatusCode, body)
	}

	// The listing is scoped: alice sees her job, bob sees an empty list.
	var jobs []Status
	_, body = doKey(t, http.MethodGet, srv.URL+"/v1/jobs", "key-a")
	if err := json.Unmarshal(body, &jobs); err != nil || len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Errorf("alice's listing = %s (%v), want exactly her job", body, err)
	}
	_, body = doKey(t, http.MethodGet, srv.URL+"/v1/jobs", "key-b")
	if err := json.Unmarshal(body, &jobs); err != nil || len(jobs) != 0 {
		t.Errorf("bob's listing = %s (%v), want empty", body, err)
	}

	// The owner's stream works and ends with the done event.
	sreq, err := http.NewRequest(http.MethodGet, jobURL+"?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	sreq.Header.Set("X-API-Key", "key-a")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || sresp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("owner stream = %d %q", sresp.StatusCode, sresp.Header.Get("Content-Type"))
	}
	events, _ := readSSE(t, sresp)
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Errorf("owner stream events %+v, want a done event", events)
	}

	// The owner may cancel (a no-op on a finished job, but authorized).
	if resp, body := doKey(t, http.MethodDelete, jobURL, "key-a"); resp.StatusCode != http.StatusOK {
		t.Errorf("owner cancel = %d: %s", resp.StatusCode, body)
	}
}

// TestBypassRespectsInFlightCap: store-admission bypass jobs count toward
// their tenant's MaxInFlight — a tenant at its cap gets the 429 signal
// even for fully-cached work, while an uncapped tenant still bypasses,
// and the slot frees again when the running job finishes.
func TestBypassRespectsInFlightCap(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1, JobWorkers: 1, SimWorkers: 2, Tenants: []tenant.Tenant{
		{Name: "capped", Key: "kc", MaxInFlight: 1},
		{Name: "free", Key: "kf"},
	}})
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(func() {
		unblock()
		m.Shutdown(context.Background())
	})
	req := SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, Sampling: tinySampling()}

	// Warm the cache so the sweep is fully store-resolvable.
	j1, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, JobDone)

	// The capped tenant's one allowed job occupies the only worker...
	blocker, err := m.enqueueAs("test", SubmitOpts{Tenant: "capped", Class: tenant.Batch}, nil,
		func(ctx context.Context, j *Job) ([]byte, error) {
			select {
			case <-release:
				return []byte(`"ok"`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	// ...and a local job fills the single queue slot: the queue is full.
	blockingJob(t, m, release)

	// At its cap, the capped tenant cannot bypass even fully-cached work.
	if _, err := m.SubmitSweep(req, SubmitOpts{Tenant: "capped"}); err != ErrQueueFull {
		t.Fatalf("capped tenant bypass = %v, want ErrQueueFull", err)
	}
	// An uncapped tenant's identical submission bypasses fine.
	j2, err := m.SubmitSweep(req, SubmitOpts{Tenant: "free"})
	if err != nil {
		t.Fatalf("uncapped tenant bypass = %v, want admission", err)
	}
	waitState(t, j2, JobDone)

	// Finishing the capped tenant's running job frees its slot: the same
	// submission is admitted again once the release lands.
	unblock()
	waitState(t, blocker, JobDone)
	deadline := time.Now().Add(10 * time.Second)
	for {
		j3, err := m.SubmitSweep(req, SubmitOpts{Tenant: "capped"})
		if err == nil {
			waitState(t, j3, JobDone)
			return
		}
		if err != ErrQueueFull || time.Now().After(deadline) {
			t.Fatalf("capped resubmission after release: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}
