// Package load is the ndaload load-generator: it replays realistic
// multi-tenant request mixes against an ndaserve instance (closed- or
// open-loop), measures per-tenant latency quantiles, throughput, and
// Jain's fairness index, and can search for the server's saturation
// throughput. The generator is a pure HTTP client — everything it knows
// about the service goes through the public API — so a run against an
// in-process server (StartLocal) and a run against a remote fleet measure
// the same code path.
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Await selects how a worker observes job completion.
type Await string

const (
	// AwaitWait blocks on POST ...?wait=1 — one round trip per job, the
	// interactive-client shape.
	AwaitWait Await = "wait"
	// AwaitPoll submits async and polls GET /v1/jobs/{id} until terminal.
	AwaitPoll Await = "poll"
	// AwaitSSE submits async and consumes GET /v1/jobs/{id}?stream=1
	// until the done event.
	AwaitSSE Await = "sse"
)

// ParseAwait validates an await mode; the empty string means AwaitWait.
func ParseAwait(s string) (Await, error) {
	switch Await(s) {
	case "", AwaitWait:
		return AwaitWait, nil
	case AwaitPoll, AwaitSSE:
		return Await(s), nil
	}
	return "", fmt.Errorf("load: unknown stream mode %q (want wait, poll, or sse)", s)
}

// TenantLoad is one tenant's generator: how many concurrent workers replay
// which mix, optionally at a fixed open-loop arrival rate.
type TenantLoad struct {
	Name    string  `json:"name"`
	Key     string  `json:"key,omitempty"`  // API key; empty on untenanted servers
	Workers int     `json:"workers"`        // concurrent request loops
	Mix     Mix     `json:"mix"`            // request shape
	Rate    float64 `json:"rate,omitempty"` // arrivals/s across the tenant; 0 = closed loop
	Weight  int     `json:"weight"`         // fair-share weight, for the weighted Jain index
}

// ParseLoads parses a comma-separated -load list. Each entry is
//
//	name:key:workers[:mix[:rate[:weight]]]
//
// with empty fields keeping their defaults (mix defMix, closed loop,
// weight 1). The key may be empty for untenanted servers.
func ParseLoads(csv string, defMix Mix) ([]TenantLoad, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, errors.New("load: empty -load list")
	}
	var loads []TenantLoad
	seen := make(map[string]bool)
	for _, entry := range strings.Split(csv, ",") {
		fields := strings.Split(entry, ":")
		if len(fields) < 3 || len(fields) > 6 {
			return nil, fmt.Errorf("load: entry %q: want name:key:workers[:mix[:rate[:weight]]]", entry)
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		l := TenantLoad{Name: fields[0], Key: fields[1], Mix: defMix, Weight: 1}
		if l.Name == "" {
			return nil, fmt.Errorf("load: entry %q: empty tenant name", entry)
		}
		if seen[l.Name] {
			return nil, fmt.Errorf("load: duplicate tenant %q", l.Name)
		}
		seen[l.Name] = true
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("load: entry %q: workers %q invalid: want a positive count", entry, fields[2])
		}
		l.Workers = n
		if len(fields) > 3 && fields[3] != "" {
			if l.Mix, err = ParseMix(fields[3]); err != nil {
				return nil, fmt.Errorf("load: entry %q: %w", entry, err)
			}
		}
		if len(fields) > 4 && fields[4] != "" {
			r, err := strconv.ParseFloat(fields[4], 64)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("load: entry %q: rate %q invalid: want 0 (closed loop) or arrivals/s", entry, fields[4])
			}
			l.Rate = r
		}
		if len(fields) > 5 && fields[5] != "" {
			w, err := strconv.Atoi(fields[5])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("load: entry %q: weight %q invalid: want a positive weight", entry, fields[5])
			}
			l.Weight = w
		}
		loads = append(loads, l)
	}
	return loads, nil
}

// Config describes one load run.
type Config struct {
	BaseURL  string        // ndaserve base URL, e.g. http://127.0.0.1:8090
	Loads    []TenantLoad  // at least one
	Duration time.Duration // measured window
	Await    Await         // completion-observation mode; "" = wait
	Warmup   bool          // replay each warmable mix once, unmeasured, before the clock starts
	Client   *http.Client  // nil = a fresh client with no global timeout
}

func (c *Config) validate() error {
	if c.BaseURL == "" {
		return errors.New("load: missing base URL")
	}
	if len(c.Loads) == 0 {
		return errors.New("load: no tenant loads")
	}
	for _, l := range c.Loads {
		if l.Workers < 1 {
			return fmt.Errorf("load: tenant %q: workers %d invalid", l.Name, l.Workers)
		}
		if l.Rate < 0 {
			return fmt.Errorf("load: tenant %q: negative rate", l.Name)
		}
	}
	if c.Duration <= 0 {
		return errors.New("load: non-positive duration")
	}
	if _, err := ParseAwait(string(c.Await)); err != nil {
		return err
	}
	return nil
}

// collector accumulates one tenant's outcomes across its workers.
type collector struct {
	mu        sync.Mutex
	lat       []time.Duration
	latSum    time.Duration
	requests  int64
	completed int64
	cancelled int64
	rejected  int64 // queue-full 429s
	quota     int64 // quota 429s
	errs      int64
	lagged    int64 // open-loop arrivals dropped because every worker was busy
}

// outcome classifies one request's fate.
type outcome int

const (
	outOK outcome = iota
	outCancelled
	outRejected
	outQuota
	outErr
)

// runner executes one tenant's workers against the server.
type runner struct {
	cfg    *Config
	load   TenantLoad
	idx    int
	client *http.Client
	col    *collector
}

// Run executes the configured load and reports what happened. The context
// bounds the whole run (a cancelled context ends it early but still
// produces a report over what completed).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Await == "" {
		cfg.Await = AwaitWait
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}

	if cfg.Warmup {
		if err := warmup(ctx, client, &cfg); err != nil {
			return nil, fmt.Errorf("load: warmup: %w", err)
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	//ndavet:allow detlint load generation measures the serving path's wall-clock latency by design
	start := time.Now()

	cols := make([]*collector, len(cfg.Loads))
	var wg sync.WaitGroup
	for i, l := range cfg.Loads {
		cols[i] = &collector{}
		r := &runner{cfg: &cfg, load: l, idx: i, client: client, col: cols[i]}
		if l.Rate > 0 {
			r.runOpen(runCtx, &wg)
		} else {
			r.runClosed(runCtx, &wg)
		}
	}
	wg.Wait()
	//ndavet:allow detlint load generation measures the serving path's wall-clock latency by design
	elapsed := time.Since(start)
	return buildReport(cfg, cols, elapsed), nil
}

// runClosed starts the tenant's closed-loop workers: each issues its next
// request as soon as the previous one resolves.
func (r *runner) runClosed(ctx context.Context, wg *sync.WaitGroup) {
	for w := 0; w < r.load.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := &gen{mix: r.load.Mix, tenantIdx: r.idx, workerIdx: w}
			for ctx.Err() == nil {
				r.one(ctx, g.next())
			}
		}(w)
	}
}

// runOpen starts an open-loop dispatcher ticking at the tenant's arrival
// rate plus workers consuming its arrivals. Arrivals that find every
// worker busy and the backlog full are dropped and counted as lagged —
// the open-loop saturation signal.
func (r *runner) runOpen(ctx context.Context, wg *sync.WaitGroup) {
	arrivals := make(chan struct{}, r.load.Workers*4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(arrivals)
		interval := time.Duration(float64(time.Second) / r.load.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				select {
				case arrivals <- struct{}{}:
				default:
					r.col.mu.Lock()
					r.col.lagged++
					r.col.mu.Unlock()
				}
			}
		}
	}()
	for w := 0; w < r.load.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := &gen{mix: r.load.Mix, tenantIdx: r.idx, workerIdx: w}
			for range arrivals {
				if ctx.Err() != nil {
					return
				}
				r.one(ctx, g.next())
			}
		}(w)
	}
}

// one issues a single request, waits for its completion per the await
// mode, and records the outcome. 429s honor Retry-After (bounded) before
// the worker continues.
func (r *runner) one(ctx context.Context, req request) {
	//ndavet:allow detlint load generation measures the serving path's wall-clock latency by design
	t0 := time.Now()
	out, retryAfter := r.issue(ctx, req)
	//ndavet:allow detlint load generation measures the serving path's wall-clock latency by design
	d := time.Since(t0)
	if out == outErr && ctx.Err() != nil {
		return // the run window closed mid-request: not an error, not a sample
	}

	r.col.mu.Lock()
	r.col.requests++
	switch out {
	case outOK:
		r.col.completed++
		r.col.lat = append(r.col.lat, d)
		r.col.latSum += d
	case outCancelled:
		r.col.completed++
		r.col.cancelled++
		r.col.lat = append(r.col.lat, d)
		r.col.latSum += d
	case outRejected:
		r.col.rejected++
	case outQuota:
		r.col.quota++
	case outErr:
		r.col.errs++
	}
	r.col.mu.Unlock()

	if out == outRejected || out == outQuota {
		if retryAfter <= 0 {
			retryAfter = 5 * time.Millisecond
		}
		if retryAfter > 2*time.Second {
			retryAfter = 2 * time.Second
		}
		select {
		case <-ctx.Done():
		case <-time.After(retryAfter):
		}
	}
}

// issue performs the HTTP exchange for one request.
func (r *runner) issue(ctx context.Context, req request) (outcome, time.Duration) {
	url := r.cfg.BaseURL + req.path
	if r.cfg.Await == AwaitWait && !req.cancelling {
		url += "?wait=1"
	}
	resp, body, err := r.do(ctx, http.MethodPost, url, req.body)
	if err != nil {
		return outErr, 0 // one() discards this when the run window closed
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		var after time.Duration
		if s := resp.Header.Get("Retry-After"); s != "" {
			if n, err := strconv.Atoi(s); err == nil {
				after = time.Duration(n) * time.Second
			}
			return outQuota, after
		}
		return outRejected, 0
	case http.StatusOK:
		return outOK, 0 // wait mode: the body is the result
	case http.StatusAccepted:
	default:
		return outErr, 0
	}

	// Async submission: find the job, then observe completion.
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return outErr, 0
	}
	if req.cancelling {
		resp, _, err := r.do(ctx, http.MethodDelete, r.cfg.BaseURL+"/v1/jobs/"+st.ID, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			return outErr, 0
		}
		return outCancelled, 0
	}
	switch r.cfg.Await {
	case AwaitSSE:
		return r.awaitSSE(ctx, st.ID), 0
	default:
		return r.awaitPoll(ctx, st.ID), 0
	}
}

// awaitPoll polls the job status until it is terminal.
func (r *runner) awaitPoll(ctx context.Context, id string) outcome {
	for {
		resp, body, err := r.do(ctx, http.MethodGet, r.cfg.BaseURL+"/v1/jobs/"+id, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			return outErr
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return outErr
		}
		switch st.State {
		case "done":
			return outOK
		case "failed", "cancelled":
			return outErr
		}
		select {
		case <-ctx.Done():
			return outErr
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// awaitSSE consumes the job's event stream until the done event.
func (r *runner) awaitSSE(ctx context.Context, id string) outcome {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/v1/jobs/"+id+"?stream=1", nil)
	if err != nil {
		return outErr
	}
	if r.load.Key != "" {
		hreq.Header.Set("X-API-Key", r.load.Key)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return outErr
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return outErr
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case line == "" && event == "done":
			return outOK
		}
	}
	return outErr
}

// do performs one bounded HTTP exchange and returns the drained response.
func (r *runner) do(ctx context.Context, method, url string, body []byte) (*http.Response, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if r.load.Key != "" {
		hreq.Header.Set("X-API-Key", r.load.Key)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, buf.Bytes(), nil
}

// warmup replays every warmable mix's distinct requests once, blocking,
// so the measured window starts against a warm cache. Warmup runs as the
// first configured tenant that replays the mix (quota charges apply — a
// warm run is service consumption like any other).
func warmup(ctx context.Context, client *http.Client, cfg *Config) error {
	done := make(map[Mix]bool)
	for i, l := range cfg.Loads {
		if done[l.Mix] {
			continue
		}
		done[l.Mix] = true
		r := &runner{cfg: cfg, load: l, idx: i, client: client, col: &collector{}}
		for _, req := range warmupRequests(l.Mix) {
			resp, body, err := r.do(ctx, http.MethodPost, cfg.BaseURL+req.path+"?wait=1", req.body)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s answered %d: %s", req.path, resp.StatusCode, body)
			}
		}
	}
	return nil
}
