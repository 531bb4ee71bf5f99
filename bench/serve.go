package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nda/internal/load"
	"nda/internal/serve"
	"nda/internal/tenant"
)

const (
	// hotClients is the closed-loop client count: one client, so the
	// workload measures the request path rather than a crowd of goroutines
	// contending for the CPUs.
	hotClients = 1
	// serveProcs is serve-hot's GOMAXPROCS. One client's requests run one
	// at a time, so one P serves them; on two, the Go scheduler spins and
	// hands every request between CPUs, and throughput follows the shared
	// host's load rather than the program.
	serveProcs = 1
	// segment is how long one server is measured. serve.Manager keeps every
	// finished job, so the heap, and with it the GC's work, grows with the
	// requests served; a fresh server per segment keeps every segment in the
	// same state and the process small.
	segment = 2 * time.Second
	// segmentWarm is the unmeasured hot load a fresh server gets first.
	segmentWarm = 250 * time.Millisecond
	// warmWindow is the unmeasured hot load on the set-up server, which
	// warms the process before the first segment.
	warmWindow = time.Second
)

// serveRunner loads an in-process ndaserve over real HTTP with
// internal/load's closed loop, every client waiting for its reply
// (?wait=1), replaying the hot mix: one request for three cells, served
// from the RAM cache after set-up.
type serveRunner struct {
	srv *server
	// ref is the set-up server's first hot exchange, simulated rather than
	// cached: every server's answer must equal it byte for byte.
	ref *exchange
}

// server is one in-process ndaserve and the client that loads it.
type server struct {
	base      string
	mgr       *serve.Manager
	shutdown  func()
	transport *http.Transport
	rec       *recorder
	client    *http.Client
}

var hotLoads = []load.TenantLoad{{Name: "local", Workers: hotClients, Mix: load.MixHot, Weight: 1}}

// startServer starts a server and fills its cache with load's own warm-up
// pass over the hot mix.
func startServer(ctx context.Context) (*server, error) {
	s := &server{}
	var err error
	if s.base, s.mgr, s.shutdown, err = load.StartLocal(serve.Config{QueueDepth: 16, JobWorkers: 2, SimWorkers: workers}); err != nil {
		return nil, err
	}
	s.transport = &http.Transport{MaxConnsPerHost: hotClients, MaxIdleConnsPerHost: hotClients}
	s.rec = &recorder{next: s.transport}
	s.client = &http.Client{Transport: s.rec}
	// A window of 1ns runs no request after the warm-up pass.
	if _, err := s.run(ctx, time.Nanosecond, true); err != nil {
		s.stop()
		return nil, err
	}
	if s.rec.hot == nil {
		s.stop()
		return nil, errors.New("the warm-up pass sent no hot request")
	}
	return s, nil
}

func (s *server) run(ctx context.Context, window time.Duration, warmup bool) (*load.Report, error) {
	return load.Run(ctx, load.Config{BaseURL: s.base, Loads: hotLoads, Duration: window, Warmup: warmup, Client: s.client})
}

func (s *server) stop() {
	s.shutdown()
	s.transport.CloseIdleConnections()
}

// check repeats the hot request: the answer, served from the cache, must
// be byte-identical to ref.
func (s *server) check(ctx context.Context, ref *exchange) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+ref.uri, bytes.NewReader(ref.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, ref.answer) {
		return fmt.Errorf("hot answer (status %d, %d bytes) differs from the set-up answer (%d bytes)",
			resp.StatusCode, len(body), len(ref.answer))
	}
	return nil
}

func (d *serveRunner) setup(ctx context.Context) error {
	s, err := startServer(ctx)
	if err != nil {
		return err
	}
	d.srv, d.ref = s, s.rec.hot
	return nil
}

func (d *serveRunner) warm(ctx context.Context) error {
	_, err := d.srv.run(ctx, warmWindow, false)
	return err
}

func (d *serveRunner) close() {
	if d.srv != nil {
		d.srv.stop()
		d.srv = nil
	}
}

// segmentResult is what one measured segment found.
type segmentResult struct {
	rep     *load.Report
	samples []time.Duration
	// counter deltas over the measured part
	hits, misses, sims int64
	jobs               int64 // jobs the manager holds at its end
	rt                 runtimeSample
}

// segments measures the window in segment-long parts, each on a fresh
// server warmed for segmentWarm, and checks every server's answer. mid runs
// on each server after its measured part (the traced run's manager pass).
func (d *serveRunner) segments(ctx context.Context, window time.Duration, tr *tracer,
	mid func(*server) error) ([]segmentResult, error) {
	d.close() // the set-up server warmed the process; it has served its part
	n := max(1, int((window+segment/2)/segment))
	var out []segmentResult
	for k := 0; k < n; k++ {
		s, err := startServer(ctx)
		if err != nil {
			return nil, err
		}
		d.srv = s
		if _, err := s.run(ctx, segmentWarm, false); err != nil {
			return nil, err
		}
		met := s.mgr.Metrics()
		hits0, misses0, sims0 := met.CacheHits.Load(), met.CacheMisses.Load(), met.Simulations.Load()
		rt0 := readRuntime()
		s.rec.start(tr)
		rep, err := s.run(ctx, window/time.Duration(n), false)
		samples := s.rec.finish()
		rt := readRuntime().minus(rt0)
		if err != nil {
			return nil, err
		}
		out = append(out, segmentResult{rep: rep, samples: samples,
			hits: met.CacheHits.Load() - hits0, misses: met.CacheMisses.Load() - misses0,
			sims: met.Simulations.Load() - sims0, jobs: met.JobsQueued.Load(), rt: rt})
		if mid != nil {
			if err := mid(s); err != nil {
				return nil, err
			}
		}
		if err := s.check(ctx, d.ref); err != nil {
			return nil, err
		}
		d.close()
	}
	return out, nil
}

// segmentMedians returns the median over the segments of the hot
// throughput and p50 latency: a few slow seconds on a shared machine move
// one segment, not the result.
func segmentMedians(segs []segmentResult) (tput, p50 float64) {
	var ts, ls []float64
	for _, s := range segs {
		var lat []float64
		for _, x := range s.samples {
			lat = append(lat, x.Seconds()*1000)
		}
		ts = append(ts, float64(len(s.samples))/s.rep.DurationSec)
		ls = append(ls, median(lat))
	}
	return median(ts), median(ls)
}

// totals sums the requests and failures of the segments.
func totals(segs []segmentResult) (attempted, failed int64) {
	for _, s := range segs {
		attempted += s.rep.Requests
		failed += s.rep.Rejected + s.rep.Errors
	}
	return attempted, failed
}

func (d *serveRunner) measure(ctx context.Context, window time.Duration) (*report, error) {
	segs, err := d.segments(ctx, window, nil, nil)
	if err != nil {
		return nil, err
	}
	tput, p50 := segmentMedians(segs)
	attempted, failed := totals(segs)
	return &report{
		attempted: attempted,
		failed:    failed,
		metrics:   map[string]float64{"ops_per_s": tput, "latency_p50_ms": p50},
	}, nil
}

// trace measures half the window untraced, which gives the counters and the
// runtime metrics, and half with a span per request. After each traced
// segment an in-process pass calls that server's manager directly at the
// same concurrency: a request's time beyond the manager's is HTTP.
func (d *serveRunner) trace(ctx context.Context, window time.Duration, tr *tracer) (*report, error) {
	plain, err := d.segments(ctx, window/2, nil, nil)
	if err != nil {
		return nil, err
	}
	traced, err := d.segments(ctx, window/2, tr, func(s *server) error {
		return s.managerPass(ctx, tr, segment/2)
	})
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	var hits, misses, sims, completed int64
	var rt runtimeSample
	for _, s := range plain {
		hits, misses, sims = hits+s.hits, misses+s.misses, sims+s.sims
		completed += s.rep.Completed
		rt = rt.plus(s.rt)
		m["serve.jobs_retained"] = max(m["serve.jobs_retained"], float64(s.jobs))
	}
	if hits+misses > 0 {
		m["serve.ram_hit_share"] = float64(hits) / float64(hits+misses)
	}
	m["serve.simulations"] = float64(sims)
	runtimeMetrics(m, rt, completed)

	plainTput, _ := segmentMedians(plain)
	tracedTput, _ := segmentMedians(traced)
	rtt, mgr := tr.seconds("http.hot"), tr.seconds("serve.manager")
	m["trace.op_ms_p50"] = percentile(rtt, 0.50) * 1000
	m["trace.op_ms_p95"] = percentile(rtt, 0.95) * 1000
	m["trace.overhead_share"] = plainTput/tracedTput - 1
	m["serve.share"] = percentile(mgr, 0.50) / percentile(rtt, 0.50)
	m["http.share"] = 1 - m["serve.share"]
	detail := map[string]float64{
		"http.rtt_ms_p50":        percentile(rtt, 0.50) * 1000,
		"http.rtt_ms_p99":        percentile(rtt, 0.99) * 1000,
		"http.overhead_ms_p50":   (percentile(rtt, 0.50) - percentile(mgr, 0.50)) * 1000,
		"serve.manager_ms_p50":   percentile(mgr, 0.50) * 1000,
		"serve.manager_ms_p99":   percentile(mgr, 0.99) * 1000,
		"serve.submit_ms_p50":    percentile(tr.seconds("serve.submit"), 0.50) * 1000,
		"serve.wait_ms_p50":      percentile(tr.seconds("serve.wait"), 0.50) * 1000,
		"serve.result_ms_p50":    percentile(tr.seconds("serve.result"), 0.50) * 1000,
		"serve.manager_requests": float64(len(mgr)),
		"http.hot_requests":      float64(len(rtt)),
		"ops_per_s_untraced":     plainTput,
	}
	a1, f1 := totals(plain)
	a2, f2 := totals(traced)
	return &report{attempted: a1 + a2, failed: f1 + f2, metrics: m, detail: detail}, nil
}

// managerPass submits the hot request straight to the manager from as many
// goroutines as the load has clients, with spans around submit, wait and
// result.
func (s *server) managerPass(ctx context.Context, tr *tracer, dur time.Duration) error {
	var hot serve.SweepRequest
	if err := json.Unmarshal(s.rec.hot.body, &hot); err != nil {
		return fmt.Errorf("hot request: %w", err)
	}
	opts := serve.SubmitOpts{Class: tenant.Interactive}
	deadline := time.Now().Add(dur)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		seq   int
	)
	next := func() string {
		mu.Lock()
		defer mu.Unlock()
		seq++
		return "m" + strconv.Itoa(seq)
	}
	for w := 0; w < hotClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id := next()
				i := tr.begin("serve.manager", id, -1)
				var j *serve.Job
				err := tr.call("serve.submit", id, i, func() (err error) { j, err = s.mgr.SubmitSweep(hot, opts); return err })
				if err == nil {
					err = tr.call("serve.wait", id, i, func() error { return j.Wait(ctx) })
				}
				if err == nil {
					err = tr.call("serve.result", id, i, func() error {
						if _, ok := j.Result(); !ok {
							return fmt.Errorf("job %s: %s", j.ID(), j.Status().State)
						}
						return nil
					})
				}
				tr.end(i)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// exchange is a hot request and its answer.
type exchange struct {
	uri          string
	body, answer []byte
}

// recorder is the load client's http.RoundTripper. It keeps the first hot
// exchange: the answer the checks compare against and the body the
// in-process pass submits. A request lasts from the call until the client
// closes the body. Between start and finish it keeps every answered
// request's round trip and, with a tracer, records a span per request.
type recorder struct {
	next http.RoundTripper

	mu       sync.Mutex
	tr       *tracer
	sampling bool
	samples  []time.Duration
	hot      *exchange
	seq      int
}

func (r *recorder) start(tr *tracer) {
	r.mu.Lock()
	r.tr, r.sampling, r.samples = tr, true, nil
	r.mu.Unlock()
}

// finish stops sampling and tracing and returns the samples kept.
func (r *recorder) finish() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.samples
	r.tr, r.sampling, r.samples = nil, false, nil
	return out
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	tr, sample, wantHot := r.tr, r.sampling, r.hot == nil
	r.seq++
	id := strconv.Itoa(r.seq)
	r.mu.Unlock()

	var body []byte
	if wantHot && req.GetBody != nil {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		if body, err = io.ReadAll(rc); err != nil {
			return nil, err
		}
	}
	sp := -1
	if tr != nil {
		sp = tr.begin("http.hot", id, -1)
	}
	t0 := time.Now()
	resp, err := r.next.RoundTrip(req)
	if err != nil {
		if sp >= 0 {
			tr.end(sp)
		}
		return nil, err
	}
	if wantHot && resp.StatusCode == http.StatusOK {
		answer, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(answer))
		r.mu.Lock()
		if r.hot == nil {
			r.hot = &exchange{uri: req.URL.RequestURI(), body: body, answer: answer}
		}
		r.mu.Unlock()
	}
	sample = sample && resp.StatusCode == http.StatusOK
	if sp >= 0 || sample {
		resp.Body = &closeHook{ReadCloser: resp.Body, end: func() {
			if sp >= 0 {
				tr.end(sp)
			}
			if sample {
				d := time.Since(t0)
				r.mu.Lock()
				r.samples = append(r.samples, d)
				r.mu.Unlock()
			}
		}}
	}
	return resp, nil
}

// closeHook runs end once, when the client closes the body.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *closeHook) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
