package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nda/internal/core"
	"nda/internal/harness"
	"nda/internal/workload"
)

// TestKeyDeterministic: the content hash is a pure function of the kind tag
// and the payload, and any change to either changes the key.
func TestKeyDeterministic(t *testing.T) {
	type payload struct {
		A string
		B int
	}
	k1 := Key("cell", payload{"x", 1})
	k2 := Key("cell", payload{"x", 1})
	if k1 != k2 {
		t.Errorf("identical payloads hashed differently: %s vs %s", k1, k2)
	}
	if Key("cell", payload{"x", 2}) == k1 {
		t.Error("payload change did not change the key")
	}
	if Key("other", payload{"x", 1}) == k1 {
		t.Error("kind change did not change the key")
	}
}

// fill adapts a value-only computation to Cache.Do's fill: the entry
// keeps no encoding and counts zero bytes.
func fill(compute func() (any, error)) func() (any, []byte, int, error) {
	return func() (any, []byte, int, error) {
		v, err := compute()
		return v, nil, 0, err
	}
}

// TestCacheSingleflight: concurrent callers for one key run the computation
// exactly once; everyone shares the result and all but the owner report a
// hit.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0, nil)
	var computes, hits atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, _, hit, err := c.Do(context.Background(), "k", fill(func() (any, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // let the others pile up
				return 42, nil
			}))
			if err != nil || v.(int) != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computation ran %d times", computes.Load())
	}
	if hits.Load() != 15 {
		t.Errorf("%d hits, want 15", hits.Load())
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries", c.Len())
	}
}

// TestCacheErrorNotCached: a failed computation (a cancelled job, say) must
// not poison the key — the next caller computes afresh.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(0, nil)
	boom := errors.New("boom")
	if _, _, _, err := c.Do(context.Background(), "k", fill(func() (any, error) { return nil, boom })); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed entry left in the cache")
	}
	v, _, hit, err := c.Do(context.Background(), "k", fill(func() (any, error) { return "fresh", nil }))
	if err != nil || hit || v.(string) != "fresh" {
		t.Fatalf("retry = %v hit=%v err=%v", v, hit, err)
	}
}

// TestCacheWaiterHonorsContext: a caller waiting on someone else's flight
// gives up when its own context dies; the flight itself is unaffected.
func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache(0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", fill(func() (any, error) {
			close(started)
			<-release
			return 1, nil
		}))
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.Do(ctx, "k", fill(func() (any, error) { return 2, nil })); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
	v, _, hit, err := c.Do(context.Background(), "k", nil)
	if err != nil || !hit || v.(int) != 1 {
		t.Fatalf("owner's result lost: %v hit=%v err=%v", v, hit, err)
	}
}

// TestCacheReadyEntryIgnoresCancelledContext: a ready entry is a value,
// not a wait, so it is served even under a context that is already done.
// A select between the entry and ctx.Done() would pick either at random,
// so the lookup repeats.
func TestCacheReadyEntryIgnoresCancelledContext(t *testing.T) {
	c := NewCache(0, nil)
	if _, _, _, err := c.Do(context.Background(), "k", fill(func() (any, error) { return 1, nil })); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		v, _, hit, err := c.Do(ctx, "k", nil)
		if err != nil || !hit || v.(int) != 1 {
			t.Fatalf("lookup %d under a cancelled context = %v, hit=%v, %v; want 1 from RAM", i, v, hit, err)
		}
	}
}

// enqueue submits an untenanted job with a caller-supplied body: local
// tenant, batch class, no cells to probe for admission.
func (m *Manager) enqueue(kind string, run func(context.Context, *Job) (any, error)) (*Job, error) {
	return m.enqueueAs(kind, resolveOpts(nil), nil, func(ctx context.Context, j *Job) ([]byte, error) {
		v, err := run(ctx, j)
		if err != nil {
			return nil, err
		}
		return json.Marshal(v)
	})
}

// blockingJob enqueues a job that parks until release closes (or its
// context dies), so tests can hold a worker or the queue occupied.
func blockingJob(t *testing.T, m *Manager, release chan struct{}) *Job {
	t.Helper()
	j, err := m.enqueue("test", func(ctx context.Context, j *Job) (any, error) {
		select {
		case <-release:
			return map[string]string{"ok": "yes"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	select {
	case <-j.doneCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s stuck in %s waiting for %s", j.ID(), j.Status().State, want)
	}
	if st := j.Status(); st.State != want {
		t.Fatalf("job %s ended %s (%s), want %s", j.ID(), st.State, st.Error, want)
	}
}

// waitRunning spins until the job leaves the queue.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := j.Status(); st.State == JobRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", j.ID())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueFullRejects: with the single worker busy and the single queue
// slot taken, the next submission bounces with ErrQueueFull and the
// rejection counter moves; it never silently blocks.
func TestQueueFullRejects(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1, JobWorkers: 1})
	release := make(chan struct{})
	running := blockingJob(t, m, release)
	waitRunning(t, running)
	queued := blockingJob(t, m, release)

	if _, err := m.enqueue("test", func(context.Context, *Job) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := m.Metrics().JobsRejected.Load(); got != 1 {
		t.Errorf("JobsRejected = %d", got)
	}

	close(release)
	waitState(t, running, JobDone)
	waitState(t, queued, JobDone)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelQueuedAndRunning: cancelling a queued job skips it entirely;
// cancelling a running job ends it as cancelled via its context.
func TestCancelQueuedAndRunning(t *testing.T) {
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1})
	release := make(chan struct{})
	running := blockingJob(t, m, release)
	waitRunning(t, running)
	queued := blockingJob(t, m, release)

	if !m.Cancel(queued.ID()) {
		t.Fatal("Cancel(queued) = false")
	}
	waitState(t, queued, JobCancelled)
	if !m.Cancel(running.ID()) {
		t.Fatal("Cancel(running) = false")
	}
	waitState(t, running, JobCancelled)
	if m.Cancel("job-999999") {
		t.Error("Cancel must report unknown IDs")
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelStopsCheckpointFastForward: a running sweep whose checkpoint
// fast-forward would take hours stops when the job is cancelled, and the
// manager can then shut down.
func TestCancelStopsCheckpointFastForward(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1, JobWorkers: 1})
	j, err := m.SubmitSweep(SweepRequest{Workloads: []string{"gcc"}, Policies: []string{"OoO"}, NoInOrder: true,
		Sampling: SamplingSpec{Checkpoints: true, WarmInsts: 1_000_000_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	if !m.Cancel(j.ID()) {
		t.Fatal("Cancel(running) = false")
	}
	waitState(t, j, JobCancelled)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsInFlight is the graceful-shutdown contract: draining
// rejects new work immediately but the in-flight job runs to completion
// and keeps its result.
func TestShutdownDrainsInFlight(t *testing.T) {
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1})
	release := make(chan struct{})
	j := blockingJob(t, m, release)
	waitRunning(t, j)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- m.Shutdown(context.Background()) }()

	// Draining must reject promptly, well before the in-flight job ends.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := m.enqueue("test", func(context.Context, *Job) (any, error) { return nil, nil })
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions not rejected while draining: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	default:
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	waitState(t, j, JobDone)
	if res, ok := j.Result(); !ok || len(res) == 0 {
		t.Error("drained job lost its result")
	}
}

// TestShutdownDeadlineCancels: when the drain budget runs out, remaining
// jobs are cancelled — they finish as JobCancelled, never dropped — and
// Shutdown reports the deadline.
func TestShutdownDeadlineCancels(t *testing.T) {
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1})
	j := blockingJob(t, m, make(chan struct{})) // never released: only ctx can end it
	waitRunning(t, j)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	waitState(t, j, JobCancelled)
	if got := m.Metrics().JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d", got)
	}
}

// TestRegistryForgetsFinishedJobs: the job registry holds every queued and
// running job but only a window of finished ones. Each finished job is
// counted once whichever path finished it (a worker, the store-served
// bypass, Cancel while queued); a forgotten ID answers 404 everywhere and
// leaves the listing, while its result still comes back from the cache.
func TestRegistryForgetsFinishedJobs(t *testing.T) {
	m, srv := newTenantServer(t, Config{QueueDepth: 1, JobWorkers: 2, SimWorkers: 1})
	req := SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, NoInOrder: true, Sampling: tinySampling()}
	first, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, JobDone)
	want, _ := first.Result()
	sims := m.Metrics().Simulations.Load()

	// Hold both workers and the one queue slot: the saturated queue admits
	// a repeat of req past it, and the queued job is cancelled.
	hold, release := make(chan struct{}), make(chan struct{})
	running := blockingJob(t, m, hold)
	waitRunning(t, running)
	second := blockingJob(t, m, release)
	waitRunning(t, second)
	queued := blockingJob(t, m, release)
	bypassed, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatalf("store-served repeat on a full queue: %v", err)
	}
	waitState(t, bypassed, JobDone)
	m.Cancel(queued.ID())
	waitState(t, queued, JobCancelled)
	close(release)
	waitState(t, second, JobDone)

	forgotten := []string{first.ID(), bypassed.ID(), queued.ID()}
	for finished := 4; finished <= 2*maxFinishedJobs; finished++ {
		j, err := m.enqueue("test", func(context.Context, *Job) (any, error) { return "ok", nil })
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, JobDone)
	}
	// Pruning at 2×maxFinishedJobs left maxFinishedJobs finished jobs, and
	// one more has finished since; the running job is always held.
	deadline := time.Now().Add(10 * time.Second)
	for len(m.JobsFor("")) != maxFinishedJobs+2 {
		if time.Now().After(deadline) {
			t.Fatalf("registry holds %d jobs, want %d finished + 1 running", len(m.JobsFor("")), maxFinishedJobs+1)
		}
		time.Sleep(time.Millisecond)
	}
	if st := running.Status(); st.State != JobRunning {
		t.Fatalf("running job is %s", st.State)
	}
	if _, ok := m.Get(running.ID()); !ok {
		t.Fatal("the running job was dropped")
	}

	_, list := get(t, srv.URL+"/v1/jobs")
	for _, id := range forgotten {
		if bytes.Contains(list, []byte(`"`+id+`"`)) {
			t.Errorf("forgotten job %s still listed", id)
		}
		for _, c := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + id},
			{http.MethodGet, "/v1/jobs/" + id + "/result"},
			{http.MethodGet, "/v1/jobs/" + id + "?stream=1"},
			{http.MethodDelete, "/v1/jobs/" + id},
		} {
			if resp, body := doKey(t, c.method, srv.URL+c.path, ""); resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s = %d (%s), want 404", c.method, c.path, resp.StatusCode, body)
			}
		}
	}

	resp, got := post(t, srv.URL+"/v1/sweep?wait=1", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("repeat of a forgotten job's request = %d, differs from its result: %s", resp.StatusCode, got)
	}
	if n := m.Metrics().Simulations.Load(); n != sims {
		t.Errorf("repeat simulated %d cells, want 0 (cache hit)", n-sims)
	}
	close(hold)
}

// TestFinishedJobHoldsOnlyItsAnswer: a job that completes, fails or is
// cancelled while queued drops its run closure, and with it the plan, and
// its cancel func. Its status, result, SSE stream and cancel still answer
// as they did.
func TestFinishedJobHoldsOnlyItsAnswer(t *testing.T) {
	m, srv := newTenantServer(t, Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	done, err := m.SubmitSweep(SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, Sampling: tinySampling()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, done, JobDone)
	failed, err := m.enqueue("test", func(context.Context, *Job) (any, error) { return nil, errors.New("boom") })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, failed, JobFailed)
	running := blockingJob(t, m, release)
	waitRunning(t, running)
	queued := blockingJob(t, m, release)
	held := func(j *Job) (run, cancel bool) {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.run != nil, j.cancel != nil
	}
	if run, cancel := held(queued); !run || cancel {
		t.Errorf("queued job holds run %v, cancel %v; want run only", run, cancel)
	}
	if run, cancel := held(running); !run || !cancel {
		t.Errorf("running job holds run %v, cancel %v; want both", run, cancel)
	}
	if !m.Cancel(queued.ID()) {
		t.Fatal("Cancel on a queued job = false")
	}
	waitState(t, queued, JobCancelled)
	close(release)
	waitState(t, running, JobDone)

	for _, j := range []*Job{done, failed, queued, running} {
		if run, cancel := held(j); run || cancel {
			t.Errorf("%s (%s) still holds run %v, cancel %v", j.ID(), j.Status().State, run, cancel)
		}
		st := j.Status()
		res, ok := j.Result()
		if ok != (st.State == JobDone) || ok != (len(res) > 0) {
			t.Errorf("%s (%s): Result = %d bytes, %v", j.ID(), st.State, len(res), ok)
		}
		resp, body := get(t, srv.URL+"/v1/jobs/"+j.ID()+"/result")
		if ok && (resp.StatusCode != http.StatusOK || !bytes.Equal(body, res)) {
			t.Errorf("%s: GET result = %d %s, want 200 %s", j.ID(), resp.StatusCode, body, res)
		}
		if !ok && resp.StatusCode == http.StatusOK {
			t.Errorf("%s (%s): GET result = 200", j.ID(), st.State)
		}
		if !m.Cancel(j.ID()) {
			t.Errorf("%s: Cancel on a finished job = false", j.ID())
		}
		if after := j.Status(); after.State != st.State || after.Error != st.Error {
			t.Errorf("%s: Cancel moved a finished job from %+v to %+v", j.ID(), st, after)
		}
		sresp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "?stream=1")
		if err != nil {
			t.Fatal(err)
		}
		events, _ := readSSE(t, sresp)
		var last Status
		if len(events) != 2 || events[1].event != "done" || json.Unmarshal([]byte(events[0].data), &last) != nil || last.State != st.State {
			t.Errorf("%s: stream = %+v, want its final status and done", j.ID(), events)
		}
	}
}

// cannedTier holds one value's bytes under every key.
type cannedTier []byte

func (c cannedTier) Get(string) ([]byte, bool) { return c, true }
func (c cannedTier) Put(string, []byte)        {}
func (c cannedTier) Has(string) bool           { return true }

// TestFinishedSweepJobsRetainOnlyTheirResults: warm full-grid quick
// sweeps that have finished retain little beyond their result bytes, not
// their plans' cells, keys, requests and grids. Every cell is one real
// measurement served from a tier, so the grid fills RAM without
// simulating.
func TestFinishedSweepJobsRetainOnlyTheirResults(t *testing.T) {
	spec, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tinySampling().resolve()
	if err != nil {
		t.Fatal(err)
	}
	meas, err := harness.Cell{Spec: spec, Policy: core.Baseline()}.Measure(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2})
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	m.tiers = []Tier{cannedTier(mustJSON("test", meas))}
	req := SweepRequest{Sampling: SamplingSpec{Quick: true}}
	if j, _ := runSweepJob(t, m, req); j.Status().Tiers.Disk != 230 {
		t.Fatalf("cold pass tiers = %+v, want 230 from the tier", j.Status().Tiers)
	}

	const n = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	size := 0
	for i := 0; i < n; i++ {
		j, res := runSweepJob(t, m, req)
		if j.Status().Tiers.RAM != 230 {
			t.Fatalf("warm pass tiers = %+v, want 230 from RAM", j.Status().Tiers)
		}
		size = len(res)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("each finished job retains %d bytes for a %d-byte result", perJob, size)
	if perJob > int64(size)*5/4 {
		t.Errorf("each finished job retains %d bytes, above 1.25× its %d-byte result", perJob, size)
	}
	runtime.KeepAlive(m)
}
