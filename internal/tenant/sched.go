package tenant

import (
	"fmt"
	"sort"
	"time"
)

// strideScale is the stride numerator. The largest effective weight is
// MaxWeight×ClassWeight(Interactive) = 100 000, so the smallest stride is
// still ~10 000 virtual-time units — coarse enough that integer division
// keeps the weighted shares within a fraction of a percent of exact.
const strideScale = 1 << 30

// flow is one (tenant, class) backlog: a FIFO of queued items advancing a
// stride-scheduled virtual clock. Higher weight ⇒ smaller stride ⇒ more
// frequent dispatches.
type flow struct {
	tenant *state
	class  Class
	stride uint64
	pass   uint64
	queue  []any
}

// state is the per-tenant runtime: configuration plus quota bucket and
// in-flight accounting shared across the tenant's class flows.
type state struct {
	cfg      Tenant
	bucket   bucket
	inFlight int
	queued   int
	// Monotonic counters for /metrics.
	admitted   uint64
	dispatched uint64
	dropped    uint64
}

// Stats is a point-in-time snapshot of one tenant's scheduler state,
// rendered into the per-tenant /metrics gauges.
type Stats struct {
	Name       string
	Weight     int
	Queued     int
	Running    int
	Admitted   uint64
	Dispatched uint64
	Dropped    uint64
}

// Scheduler is the weighted fair-share job queue. It is NOT safe for
// concurrent use: the serving layer owns a mutex and a condition variable
// around it, which keeps this type pure, allocation-light, and exactly
// unit-testable — Next()'s dispatch order is a deterministic function of
// the Enqueue sequence and the configured weights.
//
// Fairness model: every (tenant, class) pair is a flow with
// stride = strideScale / (tenantWeight × classWeight). Dispatch picks the
// backlogged, uncapped flow with the smallest pass value (ties broken by
// sorted tenant name, then interactive > batch > warm) and advances that
// flow's pass by its stride. A flow going from idle to backlogged joins at
// max(its old pass, the global virtual clock), so sleeping never banks
// credit. Because every configured weight is positive and strides are
// bounded, any backlogged flow's pass is overtaken within a bounded number
// of dispatches: starvation-freedom by construction, priority classes
// included (a warm flow waits up to ~100× longer than an interactive one,
// but never forever).
type Scheduler struct {
	depth   int // global queue bound across all tenants
	clock   uint64
	queued  int
	tenants map[string]*state
	byKey   map[string]string // API key -> tenant name
	flows   map[string]map[Class]*flow
	order   []string // tenant names, sorted: the deterministic scan order
}

// NewScheduler builds a scheduler over the given tenants plus the implicit
// local tenant. depth bounds the total queued (not yet dispatched) jobs
// across all tenants; depth <= 0 panics, as does an invalid tenant list —
// CLI input is validated by cliutil before it reaches here, so a bad list
// is a programming error.
func NewScheduler(tenants []Tenant, depth int) *Scheduler {
	if depth <= 0 {
		panic(fmt.Sprintf("tenant: scheduler depth %d invalid", depth))
	}
	ts := make([]Tenant, len(tenants))
	copy(ts, tenants)
	if err := ValidateList(ts); err != nil {
		panic("tenant: invalid tenant list: " + err.Error())
	}
	s := &Scheduler{
		depth:   depth,
		tenants: make(map[string]*state, len(ts)+1),
		byKey:   make(map[string]string, len(ts)),
		flows:   make(map[string]map[Class]*flow, len(ts)+1),
	}
	add := func(cfg Tenant) {
		st := &state{cfg: cfg, bucket: bucket{rate: cfg.Rate, burst: cfg.Burst}}
		s.tenants[cfg.Name] = st
		fs := make(map[Class]*flow, len(classOrder))
		for _, c := range classOrder {
			fs[c] = &flow{
				tenant: st,
				class:  c,
				stride: strideScale / (uint64(cfg.Weight) * ClassWeight(c)),
			}
		}
		s.flows[cfg.Name] = fs
		s.order = append(s.order, cfg.Name)
		if cfg.Key != "" {
			s.byKey[cfg.Key] = cfg.Name
		}
	}
	add(Tenant{Name: LocalName, Weight: 1})
	for _, t := range ts {
		add(t)
	}
	sort.Strings(s.order)
	return s
}

// TenantForKey resolves an API key to a tenant name.
func (s *Scheduler) TenantForKey(key string) (string, bool) {
	name, ok := s.byKey[key]
	return name, ok
}

// Tenanted reports whether any real (non-local) tenants are configured.
func (s *Scheduler) Tenanted() bool { return len(s.byKey) > 0 }

// Full reports whether the global queue bound is reached. Checked before
// Admit so a doomed request never burns a quota token.
func (s *Scheduler) Full() bool { return s.queued >= s.depth }

// QueuedLen returns the total queued (undispatched) jobs.
func (s *Scheduler) QueuedLen() int { return s.queued }

// Admit spends one of the tenant's quota tokens at the given time. It
// returns a *QuotaError (with Retry-After) when the bucket is empty, and
// ErrUnknownTenant for names the scheduler was not built with.
func (s *Scheduler) Admit(name string, now time.Time) error {
	st, ok := s.tenants[name]
	if !ok {
		return ErrUnknownTenant
	}
	if ok, retry := st.bucket.take(now); !ok {
		st.dropped++
		return &QuotaError{Tenant: name, RetryAfter: retry}
	}
	st.admitted++
	return nil
}

// Enqueue appends v to the tenant's class flow, or returns ErrQueueFull
// when the global bound is reached (counted as a drop for the tenant).
func (s *Scheduler) Enqueue(name string, class Class, v any) error {
	st, ok := s.tenants[name]
	if !ok {
		return ErrUnknownTenant
	}
	if ClassWeight(class) == 0 {
		return fmt.Errorf("tenant: enqueue with invalid class %q", class)
	}
	if s.queued >= s.depth {
		st.dropped++
		return ErrQueueFull
	}
	f := s.flows[name][class]
	if len(f.queue) == 0 && f.pass < s.clock {
		// Newly backlogged: join at the current virtual time so an idle
		// flow cannot bank credit and then monopolize the queue.
		f.pass = s.clock
	}
	f.queue = append(f.queue, v)
	st.queued++
	s.queued++
	return nil
}

// Next dispatches the next job under the fairness policy: the eligible
// (backlogged, in-flight-cap-free) flow with the smallest pass. ok is
// false when no flow is eligible — either the queue is empty or every
// backlogged tenant is at its in-flight cap; the caller's Release will
// make progress possible again.
func (s *Scheduler) Next() (v any, name string, class Class, ok bool) {
	var best *flow
	for _, tn := range s.order {
		st := s.tenants[tn]
		if st.queued == 0 {
			continue
		}
		if st.cfg.MaxInFlight > 0 && st.inFlight >= st.cfg.MaxInFlight {
			continue
		}
		for _, c := range classOrder {
			f := s.flows[tn][c]
			if len(f.queue) == 0 {
				continue
			}
			if best == nil || f.pass < best.pass {
				best = f
			}
		}
	}
	if best == nil {
		return nil, "", "", false
	}
	v = best.queue[0]
	best.queue[0] = nil // release the reference for GC
	best.queue = best.queue[1:]
	if len(best.queue) == 0 && cap(best.queue) == 0 {
		best.queue = nil
	}
	if best.pass > s.clock {
		// Monotonic: a capped flow re-becoming eligible can carry an old
		// pass; the global clock never runs backwards because of it.
		s.clock = best.pass
	}
	best.pass += best.stride
	st := best.tenant
	st.queued--
	st.inFlight++
	st.dispatched++
	s.queued--
	return v, st.cfg.Name, best.class, true
}

// Release returns one of the tenant's in-flight slots after its job
// finishes (any terminal state). Slots claimed by Next and by Bypass are
// released the same way.
func (s *Scheduler) Release(name string) {
	if st, ok := s.tenants[name]; ok && st.inFlight > 0 {
		st.inFlight--
	}
}

// Bypass admits a job that runs outside the queue (the serving layer's
// store-served bypass) in one step: it spends one of the tenant's quota
// tokens and claims one of its in-flight slots, so the job counts toward
// MaxInFlight and the dispatch metrics like any dispatched job. A tenant at
// its in-flight cap gets ErrQueueFull and keeps its token; an empty bucket
// gives a *QuotaError. The caller owes a Release when the job finishes.
func (s *Scheduler) Bypass(name string, now time.Time) error {
	st, ok := s.tenants[name]
	if !ok {
		return ErrUnknownTenant
	}
	if st.cfg.MaxInFlight > 0 && st.inFlight >= st.cfg.MaxInFlight {
		return ErrQueueFull
	}
	if err := s.Admit(name, now); err != nil {
		return err
	}
	st.inFlight++
	st.dispatched++
	return nil
}

// Remove deletes v from the tenant's class flow if it is still queued
// (used by job cancellation). It reports whether v was found; a removed
// job never occupied an in-flight slot, so no Release is owed.
func (s *Scheduler) Remove(name string, class Class, v any) bool {
	st, ok := s.tenants[name]
	if !ok {
		return false
	}
	f, ok := s.flows[name][class]
	if !ok {
		return false
	}
	for i := range f.queue {
		if f.queue[i] == v {
			copy(f.queue[i:], f.queue[i+1:])
			f.queue[len(f.queue)-1] = nil
			f.queue = f.queue[:len(f.queue)-1]
			st.queued--
			s.queued--
			return true
		}
	}
	return false
}

// TenantStats returns a snapshot per tenant, sorted by name, for the
// /metrics per-tenant gauges. The implicit local tenant is included only
// when it has ever seen traffic, so tenanted deployments don't render a
// dead series.
func (s *Scheduler) TenantStats() []Stats {
	out := make([]Stats, 0, len(s.order))
	for _, tn := range s.order {
		st := s.tenants[tn]
		if tn == LocalName && st.admitted == 0 && st.dispatched == 0 && st.queued == 0 && st.inFlight == 0 {
			continue
		}
		out = append(out, Stats{
			Name:       tn,
			Weight:     st.cfg.Weight,
			Queued:     st.queued,
			Running:    st.inFlight,
			Admitted:   st.admitted,
			Dispatched: st.dispatched,
			Dropped:    st.dropped,
		})
	}
	return out
}
