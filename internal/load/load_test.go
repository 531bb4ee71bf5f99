package load

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"nda/internal/serve"
	"nda/internal/tenant"
)

func TestParseLoads(t *testing.T) {
	loads, err := ParseLoads("alice:ka:4:hot:2.5:5, bob:kb:1", MixLongtail)
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantLoad{
		{Name: "alice", Key: "ka", Workers: 4, Mix: MixHot, Rate: 2.5, Weight: 5},
		{Name: "bob", Key: "kb", Workers: 1, Mix: MixLongtail, Weight: 1},
	}
	if len(loads) != len(want) {
		t.Fatalf("parsed %d loads, want %d", len(loads), len(want))
	}
	for i := range want {
		if loads[i] != want[i] {
			t.Errorf("load[%d] = %+v, want %+v", i, loads[i], want[i])
		}
	}
	// Empty fields keep defaults; an empty key is allowed (untenanted).
	loads, err = ParseLoads("solo::2::0.5", MixHot)
	if err != nil || loads[0].Key != "" || loads[0].Mix != MixHot || loads[0].Rate != 0.5 {
		t.Errorf("defaults entry = %+v (%v)", loads, err)
	}

	for _, bad := range []string{
		"", "alice", "alice:ka", "alice:ka:0", "alice:ka:-1", "alice:ka:x",
		"alice:ka:1:nosuchmix", "alice:ka:1:hot:-2", "alice:ka:1:hot:1:0",
		"alice:ka:1,alice:kb:1", ":k:1", "a:k:1:hot:1:1:extra",
	} {
		if _, err := ParseLoads(bad, MixHot); err == nil {
			t.Errorf("ParseLoads(%q) accepted, want error", bad)
		}
	}
}

func TestParseMixAndAwait(t *testing.T) {
	if m, err := ParseMix(""); err != nil || m != MixHot {
		t.Errorf("ParseMix(\"\") = %v, %v", m, err)
	}
	if _, err := ParseMix("warmish"); err == nil {
		t.Error("bad mix accepted")
	}
	for in, want := range map[string]Await{"": AwaitWait, "wait": AwaitWait, "poll": AwaitPoll, "sse": AwaitSSE} {
		if a, err := ParseAwait(in); err != nil || a != want {
			t.Errorf("ParseAwait(%q) = %v, %v; want %v", in, a, err, want)
		}
	}
	if _, err := ParseAwait("push"); err == nil || !strings.Contains(err.Error(), "sse") {
		t.Errorf("ParseAwait(push) = %v, want an error naming the valid modes", err)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{5}, 1},
		{[]float64{3, 3, 3, 3}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{0, 0}, 1},
		{[]float64{4, 1}, (5 * 5) / (2.0 * 17)},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Jain(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- { // 1ms..100ms, reversed to exercise sorting
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	q := newQuantiles(lat)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 || q.Max != 100 {
		t.Errorf("quantiles = %+v, want 50/95/99/100", q)
	}
	if q := newQuantiles(nil); q != (Quantiles{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
}

// TestMixDeterminism: a generator replays the identical request stream for
// the same coordinates.
func TestMixDeterminism(t *testing.T) {
	for _, mix := range []Mix{MixHot, MixLongtail, MixAttack, MixGadgets, MixCancel} {
		a := &gen{mix: mix, tenantIdx: 1, workerIdx: 2}
		b := &gen{mix: mix, tenantIdx: 1, workerIdx: 2}
		for i := 0; i < 20; i++ {
			ra, rb := a.next(), b.next()
			if ra.path != rb.path || string(ra.body) != string(rb.body) {
				t.Fatalf("mix %s diverged at step %d", mix, i)
			}
		}
	}
	// Long-tail streams differ across workers (fresh cells per worker).
	a := (&gen{mix: MixLongtail, tenantIdx: 0, workerIdx: 0}).next()
	b := (&gen{mix: MixLongtail, tenantIdx: 0, workerIdx: 1}).next()
	if string(a.body) == string(b.body) {
		t.Error("longtail workers generated identical first requests")
	}
}

// TestWarmupCoversTheStream: every request a warmable mix replays, for
// any tenant or worker, is in its warm-up set, which holds no duplicates.
// MixHot warms with exactly its one sweep; long-tail and cancel stay cold.
func TestWarmupCoversTheStream(t *testing.T) {
	hot := warmupRequests(MixHot)
	if len(hot) != 1 || hot[0].path != "/v1/sweep" || string(hot[0].body) != string(mustJSON(hotSweep())) {
		t.Errorf("hot warm-up = %+v, want one /v1/sweep with the hot sweep", hot)
	}
	for _, mix := range []Mix{MixLongtail, MixCancel} {
		if reqs := warmupRequests(mix); reqs != nil {
			t.Errorf("mix %s warms %d requests, want none", mix, len(reqs))
		}
	}
	for _, mix := range []Mix{MixHot, MixAttack, MixGadgets} {
		warm := map[string]bool{}
		for _, r := range warmupRequests(mix) {
			if warm[r.path+string(r.body)] {
				t.Errorf("mix %s warms %s %s twice", mix, r.path, r.body)
			}
			warm[r.path+string(r.body)] = true
		}
		g := &gen{mix: mix, tenantIdx: 1, workerIdx: 2}
		for i := 0; i < 10; i++ {
			if r := g.next(); !warm[r.path+string(r.body)] {
				t.Errorf("mix %s replays %s %s, which warm-up skips", mix, r.path, r.body)
			}
		}
	}
}

func TestBenchLineFormat(t *testing.T) {
	r := &Report{
		Completed:    10,
		Throughput:   123.4,
		Latency:      Quantiles{P50: 1.5, P95: 2.5, P99: 3.5, Max: 4},
		JainWeighted: 0.875,
		Tenants:      []TenantReport{{Completed: 10, avg: 2 * time.Millisecond}},
	}
	line := BenchLine("Hot", r)
	if !strings.HasPrefix(line, "BenchmarkLoadHot 10 2000000 ns/op") {
		t.Errorf("bench line = %q", line)
	}
	// benchjson's parser wants name, iterations, then (value, unit) pairs.
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		t.Errorf("bench line has %d fields (odd pairing): %q", len(fields), line)
	}
	for _, unit := range []string{"p50-ms", "p95-ms", "p99-ms", "req/s", "jain"} {
		if !strings.Contains(line, unit) {
			t.Errorf("bench line missing %s unit: %q", unit, line)
		}
	}
}

// gadgetConfig is a small server whose gadget jobs need no simulation, so
// the e2e load tests stay fast.
func gadgetConfig() serve.Config {
	return serve.Config{QueueDepth: 16, JobWorkers: 2, SimWorkers: 2}
}

// TestRunAgainstLocalServer: the closed-loop wait path end to end against
// an in-process server.
func TestRunAgainstLocalServer(t *testing.T) {
	base, _, shutdown, err := StartLocal(gadgetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	rep, err := Run(context.Background(), Config{
		BaseURL:  base,
		Loads:    []TenantLoad{{Name: "local", Workers: 2, Mix: MixGadgets, Weight: 1}},
		Duration: 300 * time.Millisecond,
		Warmup:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 || rep.Errors != 0 {
		t.Fatalf("report = %+v, want completions and no errors", rep)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("latency quantiles inconsistent: %+v", rep.Latency)
	}
	if rep.Jain != 1 {
		t.Errorf("single-tenant Jain = %g, want 1", rep.Jain)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput = %g", rep.Throughput)
	}
}

// TestRunModesAndCancelMix: poll and SSE observation plus the cancel mix
// against a tenanted in-process server — every tenant completes work, and
// the cancel tenant's jobs count as cancelled, not errors.
func TestRunModesAndCancelMix(t *testing.T) {
	cfg := gadgetConfig()
	cfg.Tenants = []tenant.Tenant{
		{Name: "alice", Key: "ka", Weight: 4},
		{Name: "bob", Key: "kb", Weight: 1},
	}
	base, _, shutdown, err := StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	for _, await := range []Await{AwaitPoll, AwaitSSE} {
		rep, err := Run(context.Background(), Config{
			BaseURL: base,
			Loads: []TenantLoad{
				{Name: "alice", Key: "ka", Workers: 2, Mix: MixGadgets, Weight: 4},
				{Name: "bob", Key: "kb", Workers: 1, Mix: MixCancel, Weight: 1},
			},
			Duration: 300 * time.Millisecond,
			Await:    await,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors > 0 {
			t.Fatalf("await %s: %d errors: %+v", await, rep.Errors, rep.Tenants)
		}
		for _, tr := range rep.Tenants {
			if tr.Completed == 0 {
				t.Errorf("await %s: tenant %s completed nothing", await, tr.Name)
			}
		}
		if rep.Tenants[1].Cancelled == 0 {
			t.Errorf("await %s: cancel mix recorded no cancellations", await)
		}
	}
}

// TestOpenLoopRate: an open-loop tenant issues roughly rate*duration
// arrivals, not as many as it can.
func TestOpenLoopRate(t *testing.T) {
	base, _, shutdown, err := StartLocal(gadgetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	rep, err := Run(context.Background(), Config{
		BaseURL:  base,
		Loads:    []TenantLoad{{Name: "local", Workers: 2, Mix: MixGadgets, Rate: 20, Weight: 1}},
		Duration: 500 * time.Millisecond,
		Warmup:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~10 arrivals at 20/s over 0.5s; allow generous scheduling slop but
	// prove it is not closed-loop (which would push hundreds).
	if rep.Requests < 2 || rep.Requests > 20 {
		t.Errorf("open-loop requests = %d, want ~10", rep.Requests)
	}
}

// TestSaturateSearch: the doubling search runs and reports a knee.
func TestSaturateSearch(t *testing.T) {
	base, _, shutdown, err := StartLocal(gadgetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	sat, err := Saturate(context.Background(), Config{
		BaseURL:  base,
		Loads:    []TenantLoad{{Name: "local", Workers: 1, Mix: MixGadgets, Weight: 1}},
		Duration: 150 * time.Millisecond,
		Warmup:   true,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sat.Points) == 0 || sat.Throughput <= 0 || sat.Workers < 1 {
		t.Errorf("saturation = %+v", sat)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{},
		{BaseURL: "http://x"},
		{BaseURL: "http://x", Loads: []TenantLoad{{Name: "a", Workers: 1}}},
		{BaseURL: "http://x", Loads: []TenantLoad{{Name: "a", Workers: 0}}, Duration: time.Second},
		{BaseURL: "http://x", Loads: []TenantLoad{{Name: "a", Workers: 1}}, Duration: time.Second, Await: "push"},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}
