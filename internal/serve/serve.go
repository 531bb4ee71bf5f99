// Package serve turns the NDA simulator into a long-lived service: a job
// manager with a bounded queue and per-job cancellation, a
// content-addressed result cache with singleflight deduplication, and the
// handlers behind cmd/ndaserve's HTTP API.
//
// The CLI drivers (ndabench, ndattack, ndalint) recompute everything from
// scratch on every invocation. The service amortizes that cost the way
// gem5-style evaluation pipelines amortize theirs with checkpoint reuse:
// every unit of simulation work — a (workload, policy, sampling-spec)
// sweep cell, an (attack, policy) matrix cell, a workload's checkpoint
// series, a program's gadget census — is keyed by a stable hash of its
// full input description and memoized, so identical work is simulated
// once per process no matter how many requests, jobs, or clients ask for
// it. Because every cell derives its result from its key's inputs alone,
// a cache hit is byte-for-byte the response a fresh simulation would have
// produced.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nda/internal/dist"
	"nda/internal/par"
	"nda/internal/store"
	"nda/internal/tenant"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned by Submit* when the bounded job queue has no
	// free slot — the backpressure signal behind HTTP 429.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining is returned by Submit* once shutdown has begun (503).
	ErrDraining = errors.New("serve: shutting down")
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one queued or running unit of API work. Every mutable field sits
// under mu, and every observable change goes through update, the one
// publisher: it applies the change under the lock, moves version and wakes
// whoever watches. HTTP handlers read a consistent snapshot with Status or
// watch while the workers are still mutating the job.
type Job struct {
	id     string
	kind   string
	tenant string       // accounting owner; tenant.LocalName when untenanted
	class  tenant.Class // scheduling class the job was submitted under
	run    func(ctx context.Context, j *Job) (any, error)
	doneCh chan struct{} // closed by finish when the job reaches a terminal state

	mu     sync.Mutex
	state  JobState
	errMsg string
	result []byte // canonical JSON, set once on success
	cancel context.CancelFunc
	// Progress: total and resolved cells, the resolved cells split by the
	// level that served each one (indexed by HitTier), and a distributed
	// job's per-worker attempts, sorted by worker URL.
	total, done int64
	tiers       [HitShared + 1]int64
	workers     []WorkerCells
	// version moves on every update; it numbers SSE events for
	// Last-Event-ID resume. changed is closed by the next update once a
	// watcher has taken it, and is nil until one does.
	version int64
	changed chan struct{}
}

// WorkerCells is one worker's share of a distributed job: how many cell
// attempts it was sent, how many cells it completed, and how many of its
// attempts were retries or hedges.
type WorkerCells struct {
	Worker     string `json:"worker"`
	Dispatched int64  `json:"dispatched"`
	Done       int64  `json:"done"`
	Retried    int64  `json:"retried"`
	Hedged     int64  `json:"hedged"`
}

// update applies f under the job's lock and, when f reports a change,
// publishes it: the version moves and the current watchers wake. Only a
// channel some watcher took is closed and dropped, so an unwatched job
// allocates nothing per change. Reports f's result.
func (j *Job) update(f func() bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !f() {
		return false
	}
	j.version++
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
	return true
}

// watch returns the job's status, its version, and a channel the next
// change closes, all read under one lock.
func (j *Job) watch() (Status, int64, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.statusLocked(), j.version, j.changed
}

// cellDone folds one resolved cell into the job: the tier that served it
// and, for a fleet dispatch, the worker attempts behind it.
func (j *Job) cellDone(tier HitTier, attempts []dist.Attempt) {
	j.update(func() bool {
		j.done++
		j.tiers[tier]++
		for _, a := range attempts {
			i, found := slices.BinarySearchFunc(j.workers, a.Worker, func(wc WorkerCells, w string) int {
				return strings.Compare(wc.Worker, w)
			})
			if !found {
				j.workers = slices.Insert(j.workers, i, WorkerCells{Worker: a.Worker})
			}
			wc := &j.workers[i]
			wc.Dispatched++
			if a.OK {
				wc.Done++
			}
			if a.Retry {
				wc.Retried++
			}
			if a.Hedge {
				wc.Hedged++
			}
		}
		return true
	})
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// TierCounts splits a job's resolved cells by the level that served each
// one: the in-process RAM cache, the local disk store, the fleet-shared
// store (coordinator hit — no worker was touched), or an actual
// computation (a local simulation, or a dispatch a worker simulated).
type TierCounts struct {
	RAM         int64 `json:"ram"`
	Disk        int64 `json:"disk"`
	FleetShared int64 `json:"fleet_shared"`
	Computed    int64 `json:"computed"`
}

// Status is a consistent snapshot of a job for the API. It deliberately
// carries no wall-clock fields: identical requests must produce identical
// response bytes whether they simulated or hit the cache.
type Status struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Tenant and Class appear only on tenanted deployments (jobs owned by
	// the implicit local tenant omit both), so single-tenant responses are
	// byte-identical to earlier releases.
	Tenant     string       `json:"tenant,omitempty"`
	Class      tenant.Class `json:"class,omitempty"`
	State      JobState     `json:"state"`
	DoneCells  int64        `json:"done_cells"`
	TotalCells int64        `json:"total_cells"`
	// CacheHits counts cells served without work leaving this process
	// (RAM + disk); CacheMisses counts the rest (fleet-shared + computed).
	// Tiers carries the full four-way breakdown.
	CacheHits   int64      `json:"cache_hits"`
	CacheMisses int64      `json:"cache_misses"`
	Tiers       TierCounts `json:"tiers"`
	Error       string     `json:"error,omitempty"`
	// Workers breaks a distributed job's progress down per fleet worker,
	// sorted by worker URL; empty for locally-simulated jobs.
	Workers []WorkerCells `json:"workers,omitempty"`
}

// Status returns a point-in-time snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the snapshot. Called with j.mu held.
func (j *Job) statusLocked() Status {
	tiers := TierCounts{
		RAM:         j.tiers[HitRAM],
		Disk:        j.tiers[HitDisk],
		FleetShared: j.tiers[HitShared],
		Computed:    j.tiers[Computed],
	}
	st := Status{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		DoneCells:   j.done,
		TotalCells:  j.total,
		CacheHits:   tiers.RAM + tiers.Disk,
		CacheMisses: tiers.FleetShared + tiers.Computed,
		Tiers:       tiers,
		Error:       j.errMsg,
		Workers:     slices.Clone(j.workers),
	}
	if j.tenant != "" && j.tenant != tenant.LocalName {
		st.Tenant = j.tenant
		st.Class = j.class
	}
	return st
}

// Result returns the job's result JSON and whether it is available yet.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == JobDone
}

// Wait blocks until the job finishes or ctx ends.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Config sizes the manager.
type Config struct {
	// QueueDepth bounds how many jobs may wait for a worker; submissions
	// beyond it are rejected with ErrQueueFull. 0 means 16.
	QueueDepth int
	// JobWorkers bounds how many jobs execute concurrently. 0 means 2.
	JobWorkers int
	// SimWorkers bounds the goroutines each job fans its cells out over
	// (via internal/par). 0 means one per available CPU.
	SimWorkers int
	// CacheMaxEntries caps the result cache (LRU eviction beyond it);
	// 0 means DefaultCacheMaxEntries.
	CacheMaxEntries int
	// Store, when non-nil, is the persistent disk tier under the RAM
	// cache: cell results that miss RAM are looked up here before
	// simulating (or dispatching), and computed cells are written back, so
	// a restarted process replays earlier sweeps from disk without running
	// a single simulation. Checkpoint series are deliberately not
	// persisted — only client-visible cell results are.
	Store *store.Store
	// SharedStore, when non-nil, is the fleet-shared tier under the disk
	// tier: a store every coordinator replica can reach. Cells found there
	// are served without dispatching to any worker, and computed cells are
	// written back. It may be the same store as Store.
	SharedStore *store.Store
	// Fleet, when non-nil, turns the manager into a coordinator: cells
	// that miss every cache tier are dispatched to the fleet's workers
	// over /v1/cell instead of simulating in this process. The tiers
	// stay in front, so repeated and overlapping requests are still
	// served without touching the fleet.
	Fleet *dist.Coordinator
	// Tenants declares the service's API-key tenants. Empty means
	// single-tenant: every submission runs as the implicit local tenant
	// and the fair-share scheduler degenerates to FIFO. An invalid list
	// panics in NewManager — CLI input is validated by tenant.ParseList
	// first.
	Tenants []tenant.Tenant
}

// admissionBypass bounds how many store-served jobs may run concurrently
// outside the worker pool when the queue is saturated (store-aware
// admission). Bypass jobs still count toward their tenant's rate quota and
// MaxInFlight cap — the cap is a hard concurrency bound either way.
const admissionBypass = 2

// maxFinishedJobs is how many finished jobs the registry is guaranteed to
// keep for status and result polls. Once twice as many are held, the
// oldest finished ones are forgotten down to it; their results still come
// back from the cache tiers for a repeated request.
const maxFinishedJobs = 1024

// Manager owns the queue, the workers, the job registry, and the result
// cache. The registry is bounded: queued and running jobs are always held,
// finished ones only up to the maxFinishedJobs window.
type Manager struct {
	cfg     Config
	cache   *Cache
	tiers   []Tier // the persistent levels under the cache: [disk, fleet-shared], nil when neither is set
	metrics *Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// mu guards the scheduler's queue and accounting, the job registry,
	// and draining; cond wakes workers when a job is enqueued or an
	// in-flight slot frees up. Lock order is always m.mu before j.mu. The
	// scheduler's API-key table is fixed in NewScheduler, so the auth path
	// reads it without mu.
	mu        sync.Mutex
	cond      *sync.Cond
	draining  bool
	bypassing int // store-admission jobs currently running outside the pool
	jobs      map[string]*Job
	order     []string // held job IDs in submission order
	finished  []string // held finished job IDs, oldest first

	sched  *tenant.Scheduler
	wg     sync.WaitGroup
	nextID atomic.Int64
}

// NewManager starts a manager and its worker pool.
func NewManager(cfg Config) *Manager {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		metrics:    NewMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		sched:      tenant.NewScheduler(cfg.Tenants, cfg.QueueDepth),
	}
	m.cond = sync.NewCond(&m.mu)
	// Box only live stores: a nil *store.Store in a Tier would pass the
	// tier walk's nil check.
	if cfg.Store != nil || cfg.SharedStore != nil {
		m.tiers = make([]Tier, 2)
		if cfg.Store != nil {
			m.tiers[0] = cfg.Store
		}
		if cfg.SharedStore != nil {
			m.tiers[1] = countedTier{cfg.SharedStore, m.metrics}
		}
	}
	m.cache = NewCache(cfg.CacheMaxEntries, func(sizeBytes int) {
		m.metrics.CacheEvictions.Add(1)
		m.metrics.CacheEvictedBytes.Add(int64(sizeBytes))
	})
	for i := 0; i < cfg.JobWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Metrics exposes the counter block.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// countedTier is the fleet-shared level: the store itself, with its
// lookups and writes counted for /metrics.
type countedTier struct {
	*store.Store
	metrics *Metrics
}

func (t countedTier) Get(key string) ([]byte, bool) {
	b, ok := t.Store.Get(key)
	if ok {
		t.metrics.SharedHits.Add(1)
	} else {
		t.metrics.SharedMisses.Add(1)
	}
	return b, ok
}

func (t countedTier) Put(key string, val []byte) {
	t.Store.Put(key, val)
	t.metrics.SharedPuts.Add(1)
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// JobsFor returns snapshots of the named tenant's jobs in submission
// order; the empty name (untenanted deployments) returns every job.
func (m *Manager) JobsFor(tenantName string) []Status {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; tenantName == "" || j.tenant == tenantName {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// SubmitOpts attributes a submission to a tenant and scheduling class.
// The zero value — the implicit local tenant, batch class — reproduces the
// pre-tenancy behavior exactly.
type SubmitOpts struct {
	Tenant string       // accounting owner; "" means tenant.LocalName
	Class  tenant.Class // scheduling class; "" means tenant.Batch
}

func resolveOpts(opts []SubmitOpts) SubmitOpts {
	var o SubmitOpts
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Tenant == "" {
		o.Tenant = tenant.LocalName
	}
	if o.Class == "" {
		o.Class = tenant.Batch
	}
	return o
}

// SubmitSweep validates and enqueues a sweep job.
func (m *Manager) SubmitSweep(req SweepRequest, opts ...SubmitOpts) (*Job, error) {
	p, err := req.plan()
	return m.submit("sweep", opts, p, err)
}

// SubmitAttack validates and enqueues an attack-matrix job.
func (m *Manager) SubmitAttack(req AttackRequest, opts ...SubmitOpts) (*Job, error) {
	p, err := req.plan()
	return m.submit("attack", opts, p, err)
}

// SubmitGadgets validates and enqueues a gadget-census job.
func (m *Manager) SubmitGadgets(req GadgetsRequest, opts ...SubmitOpts) (*Job, error) {
	p, err := req.plan()
	return m.submit("gadgets", opts, p, err)
}

// submit enqueues a validated plan as one job; err is the plan's
// validation error.
func (m *Manager) submit(kind string, opts []SubmitOpts, p *plan, err error) (*Job, error) {
	if err != nil {
		return nil, err
	}
	return m.enqueueAs(kind, resolveOpts(opts), p.cells, func(ctx context.Context, j *Job) (any, error) {
		return m.run(ctx, j, p)
	})
}

// TenantForKey resolves an API key to its tenant (the HTTP auth path).
func (m *Manager) TenantForKey(key string) (string, bool) { return m.sched.TenantForKey(key) }

// Tenanted reports whether the manager runs with configured tenants (and
// therefore requires API keys on submissions).
func (m *Manager) Tenanted() bool { return m.sched.Tenanted() }

// TenantStats snapshots the per-tenant scheduler accounting for /metrics.
func (m *Manager) TenantStats() []tenant.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.TenantStats()
}

// enqueueAs admits a submission against its tenant's quota and offers it
// to the fair-share queue without blocking: a full queue is the client's
// backpressure signal, not a wait — unless every one of the job's cells is
// already resolvable from RAM or a persistent tier, in which case the job
// runs outside the worker pool instead of bouncing (store-aware admission:
// a saturated simulation queue is no reason to refuse work that needs no
// simulation). The bypass still spends a quota token and one of the
// tenant's in-flight slots.
func (m *Manager) enqueueAs(kind string, o SubmitOpts, cells []cell, run func(context.Context, *Job) (any, error)) (*Job, error) {
	j := &Job{
		id:     fmt.Sprintf("job-%06d", m.nextID.Add(1)),
		kind:   kind,
		tenant: o.Tenant,
		class:  o.Class,
		state:  JobQueued,
		doneCh: make(chan struct{}),
		run:    run,
	}
	//ndavet:allow detlint admission wall clock feeds rate quotas and Retry-After only, never results
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	bypass := m.sched.Full()
	var err error
	switch {
	case bypass && (m.bypassing >= admissionBypass || !m.storeResolvable(cells)):
		err = tenant.ErrQueueFull
	case bypass:
		err = m.sched.Bypass(o.Tenant, now)
	default:
		if err = m.sched.Admit(o.Tenant, now); err == nil {
			err = m.sched.Enqueue(o.Tenant, o.Class, j)
		}
	}
	switch {
	case errors.Is(err, tenant.ErrQueueFull):
		m.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	case err != nil:
		m.metrics.QuotaRejected.Add(1)
		return nil, err
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.metrics.JobsQueued.Add(1)
	if !bypass {
		m.cond.Signal()
		return j, nil
	}
	m.metrics.AdmissionStoreServed.Add(1)
	m.bypassing++
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.runJob(j)
		m.mu.Lock()
		m.bypassing--
		m.sched.Release(o.Tenant)
		// The freed slot may make a capped tenant's queued job eligible
		// for a parked worker.
		m.cond.Broadcast()
		m.mu.Unlock()
	}()
	return j, nil
}

// storeResolvable reports whether every cell is already a guaranteed RAM
// hit or present in a persistent tier — a job over these cells completes
// without simulating or dispatching. Called with m.mu held; false when
// cells are unknown (warm jobs) or empty.
func (m *Manager) storeResolvable(cells []cell) bool {
	if len(cells) == 0 {
		return false
	}
	for i := range cells {
		if !m.resident(cells[i].key) {
			return false
		}
	}
	return true
}

// resident reports whether key is ready in RAM or held by any tier.
func (m *Manager) resident(key string) bool {
	if m.cache.Contains(key) {
		return true
	}
	for _, t := range m.tiers {
		if t != nil && t.Has(key) {
			return true
		}
	}
	return false
}

// Cancel stops a job: a queued job is pulled out of the fair-share queue
// and finished at once, a running job has its context cancelled (the cores
// notice within a few thousand simulated cycles) and publishes nothing
// until it ends. Returns false for unknown IDs.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return false
	}
	if m.finish(j, JobQueued, nil, context.Canceled) {
		// Best-effort removal: a worker may already have taken the job
		// off the queue, in which case runJob finds it finished and skips
		// it.
		m.sched.Remove(j.tenant, j.class, j)
		m.retireLocked(j)
		// A drain waiting on QueuedLen()==0 may now be able to finish.
		m.cond.Broadcast()
		return true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancel != nil { // nil only once finished without running
		j.cancel()
	}
	return true
}

// worker pulls jobs off the fair-share scheduler until drain completes.
// Dispatch order is the scheduler's; a worker parks when nothing is
// eligible (empty queue, or every backlogged tenant at its in-flight cap)
// and is woken by Enqueue or by another worker's Release.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		if v, name, _, ok := m.sched.Next(); ok {
			m.mu.Unlock()
			m.runJob(v.(*Job))
			m.mu.Lock()
			m.sched.Release(name)
			// The release may make a capped tenant's next job eligible
			// for a parked sibling.
			m.cond.Broadcast()
			continue
		}
		if m.draining && m.sched.QueuedLen() == 0 {
			m.mu.Unlock()
			return
		}
		m.cond.Wait()
	}
}

// runJob runs a queued job to its end and retires it; a job cancelled
// while queued is already finished and retired, and is skipped.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	if !j.update(func() bool {
		if j.state != JobQueued {
			return false
		}
		j.state, j.cancel = JobRunning, cancel
		return true
	}) {
		return
	}
	m.metrics.JobsRunning.Add(1)
	v, err := j.run(ctx, j)
	m.metrics.JobsRunning.Add(-1)

	var result []byte
	if err == nil {
		result, err = json.Marshal(v)
	}
	m.finish(j, JobRunning, result, err)
	m.mu.Lock()
	m.retireLocked(j)
	m.mu.Unlock()
}

// finish is the one terminal transition: if j is still in state from, it
// records the outcome (result on success, err otherwise), counts it,
// publishes the final status and closes doneCh. Reports whether it did.
func (m *Manager) finish(j *Job, from JobState, result []byte, err error) bool {
	return j.update(func() bool {
		if j.state != from {
			return false
		}
		switch {
		case err == nil:
			j.state, j.result = JobDone, result
			m.metrics.JobsDone.Add(1)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.state, j.errMsg = JobCancelled, err.Error()
			m.metrics.JobsCancelled.Add(1)
		default:
			j.state, j.errMsg = JobFailed, err.Error()
			m.metrics.JobsFailed.Add(1)
		}
		close(j.doneCh)
		return true
	})
}

// retireLocked counts j, which the caller's path just finished, among the
// registry's finished jobs. Once 2×maxFinishedJobs are held it forgets the
// oldest finished ones down to maxFinishedJobs, an amortized O(1) cost per
// job; queued and running jobs are never dropped. Called with m.mu held,
// exactly once per job.
func (m *Manager) retireLocked(j *Job) {
	m.finished = append(m.finished, j.id)
	if len(m.finished) < 2*maxFinishedJobs {
		return
	}
	drop := len(m.finished) - maxFinishedJobs
	for _, id := range m.finished[:drop] {
		delete(m.jobs, id)
	}
	m.finished = append(m.finished[:0], m.finished[drop:]...)
	m.order = slices.DeleteFunc(m.order, func(id string) bool {
		_, held := m.jobs[id]
		return !held
	})
}

// Shutdown drains the service: new submissions are rejected with
// ErrDraining immediately, queued and in-flight jobs run to completion,
// and Shutdown returns when the workers have exited. If ctx ends first,
// the remaining jobs are cancelled (they finish as JobCancelled, never
// silently dropped) and ctx's error is returned.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	alreadyDraining := m.draining
	if !alreadyDraining {
		m.draining = true
		// Wake every parked worker so it can re-check the drain condition
		// (and keep draining the remaining queued jobs).
		m.cond.Broadcast()
	}
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		if alreadyDraining {
			return nil
		}
		m.baseCancel()
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-idle
		return ctx.Err()
	}
}

// simWorkers resolves the per-job fan-out width: locally one goroutine per
// configured sim worker; as a coordinator, enough to fill every worker's
// in-flight window (the goroutines mostly block on I/O, not simulate).
func (m *Manager) simWorkers() int {
	if m.cfg.Fleet != nil {
		return m.cfg.Fleet.Capacity()
	}
	return par.Workers(m.cfg.SimWorkers)
}
