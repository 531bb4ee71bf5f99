package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nda/internal/dist"
	"nda/internal/store"
)

// newStoreManager builds a manager over a persistent store in dir. No
// cleanup is registered for the manager on purpose when abandon is true:
// the restart tests simulate kill -9, which runs no shutdown path.
func newStoreManager(t *testing.T, dir string, abandon bool) *Manager {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{QueueDepth: 8, JobWorkers: 2, SimWorkers: 4, Store: st})
	if !abandon {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = m.Shutdown(ctx)
		})
	}
	return m
}

func runSweepJob(t *testing.T, m *Manager, req SweepRequest) (*Job, []byte) {
	t.Helper()
	j, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	res, ok := j.Result()
	if !ok {
		t.Fatalf("sweep job did not finish: %+v", j.Status())
	}
	return j, res
}

// TestStoreRestartByteIdenticalReplay is the PR's acceptance test: a cold
// process runs the full 92-cell sweep grid into a persistent store, dies
// without any shutdown path (kill -9 never calls Close), and a fresh
// process over the same directory replays the sweep byte-identically from
// disk — the simulation counter stays at zero and every cell reports the
// disk tier.
func TestStoreRestartByteIdenticalReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("92-cell sweep")
	}
	dir := t.TempDir()
	// All 23 workloads x (3 headline policies + in-order) = 92 cells.
	req := SweepRequest{
		Policies: []string{"OoO", "Permissive", "Permissive+BR"},
		Sampling: tinySampling(),
	}

	m1 := newStoreManager(t, dir, true)
	j1, cold := runSweepJob(t, m1, req)
	if st := j1.Status(); st.TotalCells != 92 || st.Tiers.Computed != 92 {
		t.Fatalf("cold pass: %+v, want 92 computed cells", st.Tiers)
	}
	if sims := m1.Metrics().Simulations.Load(); sims != 92 {
		t.Fatalf("cold pass ran %d simulations, want 92", sims)
	}
	// No Shutdown, no Close: the first process is now "dead". Every Put
	// was fsync+renamed at completion time, so the store is complete.

	m2 := newStoreManager(t, dir, false)
	j2, warm := runSweepJob(t, m2, req)
	if !bytes.Equal(cold, warm) {
		t.Errorf("replayed sweep differs from the cold run:\ncold: %.200s\nwarm: %.200s", cold, warm)
	}
	if sims := m2.Metrics().Simulations.Load(); sims != 0 {
		t.Errorf("warm replay ran %d simulations, want 0", sims)
	}
	if st := j2.Status(); st.Tiers.Disk != 92 || st.Tiers.Computed != 0 {
		t.Errorf("warm pass tiers = %+v, want 92 disk / 0 computed", st.Tiers)
	}
	if hits := m2.Metrics().CacheDiskHits.Load(); hits != 92 {
		t.Errorf("CacheDiskHits = %d, want 92", hits)
	}

	// A third pass in the same process is pure RAM.
	j3, _ := runSweepJob(t, m2, req)
	if st := j3.Status(); st.Tiers.RAM != 92 {
		t.Errorf("third pass tiers = %+v, want 92 RAM", st.Tiers)
	}
}

// TestWarmEndpoint: POST /v1/warm precomputes the requested set; an
// identical sweep afterwards is all RAM hits. Over a restarted store the
// warm job itself is all disk hits — warming is how a rebooted service
// refills RAM without simulating.
func TestWarmEndpoint(t *testing.T) {
	dir := t.TempDir()
	warmReq := WarmRequest{
		Sweeps:  []SweepRequest{{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, Sampling: tinySampling()}},
		Gadgets: []GadgetsRequest{{Programs: []string{"meltdown"}}},
	}

	m1 := newStoreManager(t, dir, true)
	srv1 := startServer(t, m1)
	resp, body := post(t, srv1.URL+"/v1/warm?wait=1", warmReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm = %d: %s", resp.StatusCode, body)
	}
	var wr WarmResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	// exchange2 x (OoO + in-order) + one gadget census entry.
	if wr.Cells != 3 || wr.Tiers.Computed != 3 {
		t.Fatalf("cold warm response = %+v, want 3 computed cells", wr)
	}
	sims := m1.Metrics().Simulations.Load()

	// The warmed sweep is now free.
	resp, _ = post(t, srv1.URL+"/v1/sweep?wait=1", warmReq.Sweeps[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-warm sweep = %d", resp.StatusCode)
	}
	if got := m1.Metrics().Simulations.Load(); got != sims {
		t.Errorf("post-warm sweep simulated: %d -> %d", sims, got)
	}
	srv1.Close() // the manager is abandoned, crash-style

	// Restart: the same warm request replays entirely from disk.
	m2 := newStoreManager(t, dir, false)
	srv2 := startServer(t, m2)
	resp, body = post(t, srv2.URL+"/v1/warm?wait=1", warmReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed warm = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Tiers.Disk != 3 || wr.Tiers.Computed != 0 {
		t.Errorf("replayed warm tiers = %+v, want 3 disk / 0 computed", wr.Tiers)
	}
	if sims := m2.Metrics().Simulations.Load(); sims != 0 {
		t.Errorf("replayed warm ran %d simulations, want 0", sims)
	}
}

// TestWarmValidation: an invalid sub-request fails at submission, and an
// empty request resolves to the standard set without error.
func TestWarmValidation(t *testing.T) {
	m, srv := newTestServer(t)
	resp, body := post(t, srv.URL+"/v1/warm", WarmRequest{
		Sweeps: []SweepRequest{{Workloads: []string{"no-such-workload"}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid warm = %d: %s", resp.StatusCode, body)
	}
	j, err := m.SubmitWarm(WarmRequest{})
	if err != nil {
		t.Fatalf("standard warm rejected: %v", err)
	}
	// Don't run the full standard set here — submission validated it.
	m.Cancel(j.ID())
}

// TestMetricsStoreBlock: a store-backed manager exposes the store and
// RAM-tier series on /metrics.
func TestMetricsStoreBlock(t *testing.T) {
	m := newStoreManager(t, t.TempDir(), false)
	srv := startServer(t, m)
	resp, _ := post(t, srv.URL+"/v1/gadgets?wait=1", GadgetsRequest{Programs: []string{"meltdown"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gadgets = %d", resp.StatusCode)
	}
	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"nda_store_entries 1",
		"nda_store_puts_total 1",
		"nda_cache_entries 1",
		"nda_cache_bytes ",
		"nda_cache_disk_hits_total 0",
		"nda_cache_evicted_bytes_total 0",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// startServer serves an existing manager over HTTP. Unlike newTestServer
// it does not own the manager's lifecycle — the restart tests manage (or
// deliberately abandon) that themselves.
func startServer(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv
}

// fakeTier is an in-memory Tier that counts its writes. A job's cells
// resolve concurrently, so its methods lock; tests read m and puts once
// the job has finished.
type fakeTier struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newFakeTier(kv ...string) *fakeTier {
	f := &fakeTier{m: map[string][]byte{}}
	for i := 0; i+1 < len(kv); i += 2 {
		f.m[kv[i]] = []byte(kv[i+1])
	}
	return f
}

func (f *fakeTier) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.m[key]
	return b, ok
}

func (f *fakeTier) Put(key string, val []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[key] = val
	f.puts++
}

func (f *fakeTier) Has(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.m[key]
	return ok
}

// walk looks "k" up once through a manager's tier chain over tiers —
// walkTiers, and on a miss compute and write-back — calling compute when
// every level misses.
func walk(t *testing.T, tiers []Tier, compute func() (any, error)) (int, HitTier) {
	t.Helper()
	kind := &cellKind{
		compute: func(*Manager, context.Context, *cell) (any, error) { return compute() },
		decode:  decodeJSON[int],
	}
	m := &Manager{tiers: tiers}
	v, _, tier, err := m.lookup(context.Background(), &cell{kind: kind, key: "k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	switch v := v.(type) {
	case *int:
		return *v, tier
	case int:
		return v, tier
	}
	t.Fatalf("value %T", v)
	return 0, tier
}

func mustNotCompute(t *testing.T) func() (any, error) {
	return func() (any, error) {
		t.Error("compute ran although a tier held the value")
		return 0, nil
	}
}

// TestTierWalk: the resolver walks its levels in order — a fleet-shared hit
// reports HitShared and writes the bytes back into the disk tier, an
// undecodable entry falls through to the next level, a compute writes
// every level, and nil levels are skipped.
func TestTierWalk(t *testing.T) {
	t.Run("shared hit writes back", func(t *testing.T) {
		disk, shared := newFakeTier(), newFakeTier("k", "7")
		if v, tier := walk(t, []Tier{disk, shared}, mustNotCompute(t)); v != 7 || tier != HitShared {
			t.Errorf("got %d from %v, want 7 from HitShared", v, tier)
		}
		if string(disk.m["k"]) != "7" || shared.puts != 0 {
			t.Errorf("disk holds %q, shared puts %d; want the shared bytes written back to disk only", disk.m["k"], shared.puts)
		}
	})
	t.Run("undecodable falls through", func(t *testing.T) {
		disk, shared := newFakeTier("k", "not json"), newFakeTier("k", "8")
		if v, tier := walk(t, []Tier{disk, shared}, mustNotCompute(t)); v != 8 || tier != HitShared {
			t.Errorf("got %d from %v, want 8 from HitShared", v, tier)
		}
		if string(disk.m["k"]) != "8" {
			t.Errorf("disk holds %q, want the good bytes written over the bad", disk.m["k"])
		}
		disk, shared = newFakeTier("k", "{"), newFakeTier("k", "[")
		if v, tier := walk(t, []Tier{disk, shared}, func() (any, error) { return 5, nil }); v != 5 || tier != Computed {
			t.Errorf("got %d from %v, want 5 computed when no level decodes", v, tier)
		}
	})
	t.Run("compute writes every level", func(t *testing.T) {
		disk, shared := newFakeTier(), newFakeTier()
		if v, tier := walk(t, []Tier{disk, shared}, func() (any, error) { return 9, nil }); v != 9 || tier != Computed {
			t.Errorf("got %d from %v, want 9 computed", v, tier)
		}
		if string(disk.m["k"]) != "9" || string(shared.m["k"]) != "9" {
			t.Errorf("disk %q, shared %q; want both 9", disk.m["k"], shared.m["k"])
		}
	})
	t.Run("nil levels skipped", func(t *testing.T) {
		shared := newFakeTier("k", "3")
		if v, tier := walk(t, []Tier{nil, shared}, mustNotCompute(t)); v != 3 || tier != HitShared {
			t.Errorf("got %d from %v, want 3 from HitShared", v, tier)
		}
		disk := newFakeTier()
		if v, tier := walk(t, []Tier{disk, nil}, func() (any, error) { return 4, nil }); v != 4 || tier != Computed {
			t.Errorf("got %d from %v, want 4 computed", v, tier)
		}
		if string(disk.m["k"]) != "4" {
			t.Errorf("disk holds %q, want 4", disk.m["k"])
		}
	})
}

// TestSharedStoreAdmission: a coordinator whose queue is full still admits
// a job whose cells are all in the fleet-shared store — the admission
// probe reads the same tier chain the resolver walks — and serves it
// without dispatching a cell.
func TestSharedStoreAdmission(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := SweepRequest{Workloads: []string{"exchange2"}, Policies: []string{"OoO"}, Sampling: tinySampling()}

	// A local manager computes the cells into what becomes the shared store.
	local := NewManager(Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2, Store: st})
	_, want := runSweepJob(t, local, req)
	if err := local.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var dispatched atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cell" {
			dispatched.Add(1)
			http.Error(w, "unexpected dispatch", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(worker.Close)
	fleet, err := dist.New([]string{worker.URL}, dist.Options{Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	m := NewManager(Config{QueueDepth: 1, JobWorkers: 1, Fleet: fleet, SharedStore: st})
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		_ = m.Shutdown(context.Background())
	})

	// Saturate: one job running, one filling the single queue slot.
	waitRunning(t, blockingJob(t, m, release))
	blockingJob(t, m, release)
	if _, err := m.SubmitSweep(SweepRequest{Workloads: []string{"xz"}, Policies: []string{"OoO"}, Sampling: tinySampling()}); err != ErrQueueFull {
		t.Fatalf("uncached submit on full queue = %v, want ErrQueueFull", err)
	}

	j, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatalf("shared-store-resolvable submit on full queue = %v, want admission", err)
	}
	waitState(t, j, JobDone)
	if got, _ := j.Result(); !bytes.Equal(got, want) {
		t.Errorf("shared-store result differs from the local run:\ngot:  %s\nwant: %s", got, want)
	}
	if st := j.Status(); st.Tiers.FleetShared != 2 || st.Tiers.Computed != 0 {
		t.Errorf("tiers = %+v, want 2 fleet_shared / 0 computed", st.Tiers)
	}
	if got := m.Metrics().AdmissionStoreServed.Load(); got != 1 {
		t.Errorf("AdmissionStoreServed = %d, want 1", got)
	}
	if n := dispatched.Load(); n != 0 {
		t.Errorf("%d cells dispatched, want 0", n)
	}
	if !strings.Contains(m.RenderMetrics(), "nda_admission_store_served_total 1") {
		t.Error("/metrics missing nda_admission_store_served_total 1")
	}
}

// TestSameStoreIsOneTier: a manager whose fleet-shared store is its disk
// store walks that store once. Resolving one computed cell looks it up
// once and writes it once, and /metrics has no shared-tier block to
// double-count it in.
func TestSameStoreIsOneTier(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1, Store: st, SharedStore: st})
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	j, err := m.SubmitGadgets(GadgetsRequest{Programs: []string{"meltdown"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobDone)
	if c := st.Counters(); c.Misses != 1 || c.Puts != 1 {
		t.Errorf("store counters = %d misses / %d puts, want 1 / 1", c.Misses, c.Puts)
	}
	if tiers := j.Status().Tiers; tiers.Computed != 1 {
		t.Errorf("tiers = %+v, want 1 computed", tiers)
	}
	if strings.Contains(m.RenderMetrics(), "nda_dist_shared_") {
		t.Error("/metrics renders a fleet-shared block for the disk store")
	}
}

// captureTier records every write, and holds nothing to read.
type captureTier struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *captureTier) Get(string) ([]byte, bool) { return nil, false }
func (c *captureTier) Has(string) bool           { return false }
func (c *captureTier) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

// sprawl re-lays canonical JSON out the way no encoder in this repository
// writes it: indented, with a trailing newline. It still decodes to the
// same value.
func sprawl(t *testing.T, b []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Indent(&out, b, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	out.WriteString("\n\n")
	return out.Bytes()
}

// TestForeignBytesAreReencoded: bytes from outside the process — a tier's
// entry or a fleet worker's /v1/cell answer — that decode but are not
// canonical are never spliced or written back as they are. The response
// served from them is byte-identical to a cold, computed one, and a tier
// above the one that held them receives the canonical bytes.
func TestForeignBytesAreReencoded(t *testing.T) {
	req := SweepRequest{Workloads: []string{"exchange2", "xz"}, Policies: []string{"OoO", "Strict"}, Sampling: tinySampling()}
	p, err := req.plan()
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(len(p.cells))

	// A cold, computed run, whose canonical cell bytes the capture tier
	// records.
	cold := NewManager(Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2})
	t.Cleanup(func() { _ = cold.Shutdown(context.Background()) })
	capture := &captureTier{m: map[string][]byte{}}
	cold.tiers = []Tier{capture}
	_, want := runSweepJob(t, cold, req)
	if len(capture.m) != int(cells) {
		t.Fatalf("captured %d cells, want %d", len(capture.m), cells)
	}

	t.Run("tier", func(t *testing.T) {
		disk, shared := newFakeTier(), newFakeTier()
		for k, v := range capture.m {
			shared.m[k] = sprawl(t, v)
		}
		m := NewManager(Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2})
		t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
		m.tiers = []Tier{disk, shared}
		j, got := runSweepJob(t, m, req)
		if !bytes.Equal(got, want) {
			t.Errorf("response from non-canonical tier bytes differs from the computed one:\ngot:  %s\nwant: %s", got, want)
		}
		if tiers := j.Status().Tiers; tiers.FleetShared != cells {
			t.Errorf("tiers = %+v, want %d fleet_shared", tiers, cells)
		}
		for k, v := range capture.m {
			if !bytes.Equal(disk.m[k], v) {
				t.Errorf("disk tier got %q written back for %s, want the canonical %q", disk.m[k], k, v)
			}
		}
	})

	t.Run("fleet", func(t *testing.T) {
		wm := NewManager(Config{QueueDepth: 4, JobWorkers: 1, SimWorkers: 2})
		t.Cleanup(func() { _ = wm.Shutdown(context.Background()) })
		wh := NewHandler(wm)
		// The worker answers every cell as canonical JSON and a newline.
		direct := startServer(t, wm)
		for _, c := range p.cells {
			resp, body := post(t, direct.URL+"/v1/cell", c.req)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, append(capture.m[c.key], '\n')) {
				t.Fatalf("/v1/cell %+v = %d %s, want the canonical bytes and a newline", c.req, resp.StatusCode, body)
			}
		}
		worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			wh.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			_, _ = w.Write(sprawl(t, rec.Body.Bytes()))
		}))
		t.Cleanup(worker.Close)
		fleet, err := dist.New([]string{worker.URL}, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fleet.Close)
		m := NewManager(Config{QueueDepth: 4, JobWorkers: 1, Fleet: fleet})
		t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
		j, got := runSweepJob(t, m, req)
		if !bytes.Equal(got, want) {
			t.Errorf("response from non-canonical worker answers differs from the computed one:\ngot:  %s\nwant: %s", got, want)
		}
		if tiers := j.Status().Tiers; tiers.Computed != cells {
			t.Errorf("tiers = %+v, want %d computed", tiers, cells)
		}
	})
}
