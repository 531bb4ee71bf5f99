package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nda/internal/par"
)

// Coordinator shards cells over a fixed fleet of workers. It is safe for
// concurrent use: the sweep runners issue one Do per cell from their
// parallel pool, and the coordinator bounds what each worker sees.
type Coordinator struct {
	opts    Options
	client  *http.Client // dispatch and probing, with connection reuse sized to the window
	workers []*worker
	rr      atomic.Int64 // round-robin cursor for tie-breaking picks

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a coordinator over the given worker base URLs and starts its
// health-probe loop. At least one URL is required; each must be a valid
// absolute http/https URL (see ParseWorkerURL). Call Close when done.
func New(urls []string, opts Options) (*Coordinator, error) {
	if len(urls) < 1 {
		return nil, errors.New("dist: need at least one worker URL")
	}
	opts = opts.withDefaults()
	c := &Coordinator{opts: opts, stop: make(chan struct{}), client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * opts.Window,
		IdleConnTimeout:     90 * time.Second,
	}}}
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		u, err := ParseWorkerURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("dist: duplicate worker URL %q", u)
		}
		seen[u] = true
		w := &worker{url: u, sem: par.NewSem(opts.Window)}
		w.healthy.Store(true) // optimistic: the first probe or dispatch corrects it
		c.workers = append(c.workers, w)
	}
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Close stops the health loop. In-flight Do calls are unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Capacity is the fleet-wide in-flight window: workers x per-worker
// window. Callers size their dispatch pools to it so the fleet saturates.
func (c *Coordinator) Capacity() int {
	return len(c.workers) * c.opts.Window
}

// Attempt records one dispatch of a cell to one worker.
type Attempt struct {
	Worker string // base URL
	OK     bool   // answered 2xx
	Retry  bool   // re-dispatch of a previously failed cell
	Hedge  bool   // issued as a hedge against a straggler
}

// Stat summarizes how one cell was served: every attempt in completion
// order, and the worker whose response won.
type Stat struct {
	Worker   string
	Attempts []Attempt
}

// Do resolves one cell — an HTTP POST of body to path on some worker —
// and returns the winning response body. Dispatch retries with exponential
// backoff and jitter across workers, hedges stragglers, and fails only
// after Options.Retries re-dispatches have been exhausted or ctx ends.
func (c *Coordinator) Do(ctx context.Context, path string, body []byte) ([]byte, Stat, error) {
	var stat Stat
	backoff := c.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			// Full jitter: sleep a uniform fraction of the backoff so
			// retries from many cells don't re-converge on one worker.
			//ndavet:allow detlint retry backoff jitter; affects scheduling only, merges stay byte-identical
			d := time.Duration(rand.Int63n(int64(backoff)) + 1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, stat, ctx.Err()
			}
			if backoff *= 2; backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
		}
		res, attempts, err := c.tryHedged(ctx, path, body, attempt > 0)
		stat.Attempts = append(stat.Attempts, attempts...)
		if err == nil {
			for _, a := range attempts {
				if a.OK {
					stat.Worker = a.Worker
				}
			}
			return res, stat, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, stat, ctx.Err()
		}
	}
	return nil, stat, fmt.Errorf("dist: cell failed after %d attempts: %w", len(stat.Attempts), lastErr)
}

// tryHedged runs one dispatch round: a primary attempt, plus — if the
// primary is still in flight after HedgeAfter — one hedge on a different
// worker. The first success wins and cancels the other.
func (c *Coordinator) tryHedged(ctx context.Context, path string, body []byte, isRetry bool) ([]byte, []Attempt, error) {
	type reply struct {
		body []byte
		err  error
		w    *worker
		hdg  bool
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan reply, 2) // buffered: losers never block
	launch := func(w *worker, hedge bool) {
		w.dispatched.Add(1)
		if isRetry {
			w.retried.Add(1)
		}
		if hedge {
			w.hedged.Add(1)
		}
		go func() {
			b, err := c.post(rctx, w, path, body)
			ch <- reply{body: b, err: err, w: w, hdg: hedge}
		}()
	}

	primary := c.pick(nil)
	launch(primary, false)
	inFlight := 1

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 && len(c.workers) > 1 {
		hedgeTimer = time.NewTimer(c.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var attempts []Attempt
	var firstErr error
	for inFlight > 0 {
		select {
		case r := <-ch:
			inFlight--
			attempts = append(attempts, Attempt{Worker: r.w.url, OK: r.err == nil, Retry: isRetry, Hedge: r.hdg})
			if r.err == nil {
				return r.body, attempts, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-hedgeC:
			hedgeC = nil
			if w := c.pick(primary); w != nil && w != primary {
				launch(w, true)
				inFlight++
			}
		case <-ctx.Done():
			// The buffered channel lets the in-flight goroutines finish
			// into it; rctx's cancel aborts their requests promptly.
			return nil, attempts, ctx.Err()
		}
	}
	return nil, attempts, firstErr
}

// pick chooses the dispatch target: the least-loaded healthy worker, with
// a rotating tie-break so equal loads spread evenly. If every worker is
// evicted it falls back to the full fleet — a fleet that is temporarily
// all-down recovers by retry rather than failing instantly — and it only
// returns exclude when there is no alternative.
func (c *Coordinator) pick(exclude *worker) *worker {
	offset := int(c.rr.Add(1))
	best := func(healthyOnly bool) *worker {
		var b *worker
		bLoad := 0
		for i := range c.workers {
			w := c.workers[(offset+i)%len(c.workers)]
			if w == exclude || (healthyOnly && !w.healthy.Load()) {
				continue
			}
			if load := w.sem.InUse(); b == nil || load < bLoad {
				b, bLoad = w, load
			}
		}
		return b
	}
	if w := best(true); w != nil {
		return w
	}
	if w := best(false); w != nil {
		return w
	}
	return exclude
}

// post sends one attempt to one worker, bounded by the worker's in-flight
// window and the per-attempt timeout. Any transport error or non-2xx
// status is a failed attempt (and counts toward eviction).
func (c *Coordinator) post(ctx context.Context, w *worker, path string, body []byte) ([]byte, error) {
	if err := w.sem.Acquire(ctx); err != nil {
		return nil, err
	}
	defer w.sem.Release()
	actx, cancel := context.WithTimeout(ctx, c.opts.CellTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, w.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		w.noteFailure(c.opts.EvictAfter)
		return nil, fmt.Errorf("dist: %s%s: %w", w.url, path, err)
	}
	//ndavet:allow errlint close of a fully read response body has nothing left to report
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxCellResponse))
	if err != nil {
		w.noteFailure(c.opts.EvictAfter)
		return nil, fmt.Errorf("dist: %s%s: reading response: %w", w.url, path, err)
	}
	if resp.StatusCode/100 != 2 {
		w.noteFailure(c.opts.EvictAfter)
		return nil, fmt.Errorf("dist: %s%s: %s: %s", w.url, path, resp.Status, truncate(out, 200))
	}
	w.noteSuccess()
	w.succeeded.Add(1)
	return out, nil
}

// maxCellResponse bounds one cell's response body; the largest cell (a
// full gadget report) is a few tens of KB.
const maxCellResponse = 16 << 20

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// healthLoop probes every worker's /healthz on a fixed period, feeding the
// same eviction/re-admission accounting the dispatch path uses: an evicted
// worker that recovers is re-admitted by its next successful probe without
// any dispatch having to risk it first.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, w := range c.workers {
				c.probe(w)
			}
		}
	}
}

// probeTimeoutFloor is the minimum probe timeout, whatever the probe
// period. A dead worker fails its probe instantly (refused or aborted
// connection), so a short HealthEvery still detects death quickly; the
// floor only keeps a loaded-but-alive worker — slow to schedule the
// /healthz handler while its cores simulate — from being probe-evicted.
const probeTimeoutFloor = time.Second

func (c *Coordinator) probe(w *worker) {
	tmo := c.opts.HealthEvery
	if tmo < probeTimeoutFloor {
		tmo = probeTimeoutFloor
	}
	ctx, cancel := context.WithTimeout(context.Background(), tmo)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		w.noteFailure(c.opts.EvictAfter)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		w.noteFailure(c.opts.EvictAfter)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.noteFailure(c.opts.EvictAfter)
		return
	}
	w.noteSuccess()
}
