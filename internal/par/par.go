// Package par provides the worker pool the evaluation drivers use to fan
// independent simulations — the (policy, workload) cells of the SMARTS
// sweep and the (attack, policy) cells of the security matrix — out over
// the machine's cores.
//
// The pool is built for deterministic aggregation: jobs are identified by
// index, derive every input from that index, and write results only into
// index-addressed slots supplied by the caller. Under that contract the
// aggregate outcome is bit-identical for any worker count, because no job
// can observe scheduling order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: n > 0 is used as given; anything
// else means one worker per available CPU (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Sem is a counting semaphore with context-aware acquisition. The dispatch
// layers use it to bound in-flight work per resource — one Sem per remote
// worker caps how many cells the coordinator may have outstanding there —
// the same way the pool's worker count bounds local fan-out.
type Sem struct {
	ch chan struct{}
}

// NewSem returns a semaphore with n slots (n < 1 is treated as 1).
func NewSem(n int) *Sem {
	if n < 1 {
		n = 1
	}
	return &Sem{ch: make(chan struct{}, n)}
}

// Acquire takes a slot, blocking until one frees or ctx ends.
func (s *Sem) Acquire(ctx context.Context) error {
	select {
	case s.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire.
func (s *Sem) Release() { <-s.ch }

// InUse reports how many slots are currently held (a queue-depth gauge).
func (s *Sem) InUse() int { return len(s.ch) }

// Job is a pool job, given the index i of the job it runs. The form
// func(w, i int) error is also given the index w, in [0, workers), of the
// pool goroutine running it. No two jobs running at once share a w, so a
// caller keeps per-worker state (the sweep and matrix engines' cores, the
// differential checker's) in a slice indexed by it; callers with no such
// state pass func(i int) error.
type Job interface {
	func(i int) error | func(w, i int) error
}

// RunCtx executes n independent jobs, indexed 0..n-1, on up to workers
// goroutines (workers <= 0 means Workers(0)). Indices are handed out in
// ascending order, so with one worker the jobs run strictly sequentially.
//
// On failure the pool cancels the outstanding work: no queued job starts
// after an error is recorded, and in-flight jobs run to completion. Once
// ctx is done, no queued job starts either; in-flight jobs run to
// completion unless they observe ctx themselves (the simulation drivers
// pass ctx.Done() down to the cores, so long cells stop mid-simulation
// too). Job errors take precedence over the context error — RunCtx returns
// the lowest-indexed job error among the jobs that ran (with a single
// worker exactly the first error, matching a serial loop), otherwise
// ctx.Err() if the context ended the run early, otherwise nil.
func RunCtx[J Job](ctx context.Context, n, workers int, job J) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	p := &pool{ctx: ctx, n: n, errs: make([]error, n)}
	switch j := any(job).(type) {
	case func(w, i int) error:
		p.job = workerJob(j)
	case func(i int) error:
		p.job = indexJob(j)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.drain(w)
		}()
	}
	wg.Wait()
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	if p.cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// pool is the shared fan-out state of one RunCtx run: the claim counter
// the workers race on, the failure/cancellation latches, and the
// index-addressed error slots.
type pool struct {
	ctx       context.Context
	n         int
	next      atomic.Int64
	failed    atomic.Bool
	cancelled atomic.Bool
	errs      []error
	job       runner
}

// runner runs one job of either Job form. A func value fits in an
// interface without an allocation, so neither form costs one per run.
type runner interface{ run(w, i int) error }

type (
	indexJob  func(i int) error
	workerJob func(w, i int) error
)

func (f indexJob) run(_, i int) error  { return f(i) }
func (f workerJob) run(w, i int) error { return f(w, i) }

// drain is worker w's slot fold: claim ascending indices off the shared
// counter and run each job into its own slot until the work runs out, a
// job fails, or the context ends. Every sweep cell and matrix cell in the
// repo funnels through this loop, so it must stay allocation-free.
//
//ndavet:hotpath
func (p *pool) drain(w int) {
	for !p.failed.Load() {
		//ndavet:allow alloclint:call context.Err on stdlib contexts is allocation-free; the interface dispatch is opaque to the analyzer
		if p.ctx.Err() != nil {
			p.cancelled.Store(true)
			return
		}
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		//ndavet:allow alloclint:call the job is the caller's fold; measured hot windows pass allocation-free jobs
		if err := p.job.run(w, i); err != nil {
			p.errs[i] = err
			p.failed.Store(true)
			return
		}
	}
}
