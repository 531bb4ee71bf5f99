// Package dist scales the sweep engine across a fleet of machines: a
// coordinator shards a job's independent cells over N remote ndaserve
// workers and merges the results byte-identically to a local run.
//
// The unit of distribution is the same unit the local engine and the
// result cache already use — one (workload, policy, sampling) sweep cell,
// one (attack, policy) matrix cell, one program's gadget census — shipped
// to a worker as a POST /v1/cell request and returned as the cell's
// canonical JSON. Because a cell's result is a pure function of its
// request, and because the caller assembles cells into the final table in
// request order (internal/par's index-addressed contract), the merged
// output is bit-identical no matter how many workers served it, which
// worker served each cell, or how many retries and hedges it took.
//
// The coordinator owns the real-world failure modes so the caller never
// sees them:
//
//   - bounded in-flight windows per worker (Options.Window), so a slow
//     worker queues instead of being buried;
//   - per-attempt timeouts with retry, exponential backoff, and jitter;
//   - health probing with eviction after consecutive failures and
//     re-admission when /healthz recovers;
//   - hedged dispatch for straggler cells: after Options.HedgeAfter the
//     cell is issued to a second worker and the first response wins.
//
// A worker killed mid-sweep therefore costs wall-clock, never bytes: its
// in-flight cells fail, retry on surviving workers, and land in the same
// index-addressed slots.
//
// The coordinator only dispatches. It knows no cache keys and no stores:
// the caller (internal/serve's tier chain) has already missed its RAM
// cache, its disk store and the fleet-shared store before a cell reaches
// Do, and writes the result back into each of them afterwards.
package dist

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"nda/internal/par"
)

// Defaults for the zero Options fields.
const (
	DefaultWindow      = 4
	DefaultCellTimeout = 2 * time.Minute
	DefaultRetries     = 3
	DefaultBaseBackoff = 50 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
	DefaultHealthEvery = 2 * time.Second
	DefaultEvictAfter  = 3
)

// Options tunes the coordinator. A zero or negative Window, CellTimeout,
// BaseBackoff, MaxBackoff, HealthEvery or EvictAfter selects the matching
// Default constant. Retries differs: 0 means no re-dispatch, and only a
// negative value selects DefaultRetries. HedgeAfter <= 0 disables hedging.
type Options struct {
	// Window caps in-flight cells per worker.
	Window int
	// CellTimeout bounds one dispatch attempt of one cell.
	CellTimeout time.Duration
	// Retries is how many times a failed cell is re-dispatched after its
	// first attempt before the job fails; 0 disables re-dispatch and a
	// negative value selects DefaultRetries.
	Retries int
	// BaseBackoff and MaxBackoff shape the exponential backoff (with
	// jitter) between a cell's attempts.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeAfter issues a straggling cell to a second worker after this
	// long; the first response wins. <= 0 disables hedging.
	HedgeAfter time.Duration
	// HealthEvery is the period of the background /healthz probe.
	HealthEvery time.Duration
	// EvictAfter is how many consecutive failures (dispatch or probe)
	// evict a worker from the rotation.
	EvictAfter int
	// Client is the HTTP client used for dispatch and probing; nil means
	// a dedicated client with sane connection reuse.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = DefaultCellTimeout
	}
	if o.Retries < 0 {
		o.Retries = DefaultRetries
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.HealthEvery <= 0 {
		o.HealthEvery = DefaultHealthEvery
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = DefaultEvictAfter
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * o.Window,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// worker is one remote ndaserve endpoint and its dispatch state.
type worker struct {
	url string   // base URL, no trailing slash
	sem *par.Sem // bounded in-flight window

	healthy     atomic.Bool
	consecFails atomic.Int64

	// Lifetime counters, exported per worker on /metrics.
	dispatched atomic.Int64 // attempts sent (including retries and hedges)
	succeeded  atomic.Int64 // attempts answered 2xx
	retried    atomic.Int64 // attempts that were retries of a failed cell
	hedged     atomic.Int64 // attempts issued as hedges against a straggler
	evicted    atomic.Int64 // transitions healthy -> evicted
	readmitted atomic.Int64 // transitions evicted -> healthy
}

// noteFailure records one failed attempt or probe; the worker is evicted
// after EvictAfter consecutive failures.
func (w *worker) noteFailure(evictAfter int) {
	if w.consecFails.Add(1) >= int64(evictAfter) && w.healthy.CompareAndSwap(true, false) {
		w.evicted.Add(1)
	}
}

// noteSuccess records one successful attempt or probe, re-admitting an
// evicted worker.
func (w *worker) noteSuccess() {
	w.consecFails.Store(0)
	if w.healthy.CompareAndSwap(false, true) {
		w.readmitted.Add(1)
	}
}

// ParseWorkerURL validates one worker base URL: absolute http/https with a
// host and no query/fragment. The returned form has no trailing slash.
func ParseWorkerURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", errors.New("dist: empty worker URL")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("dist: worker URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("dist: worker URL %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("dist: worker URL %q: missing host", raw)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("dist: worker URL %q: must not carry a query or fragment", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}
