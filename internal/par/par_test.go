package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Error("explicit count must be honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("auto count must be at least 1")
	}
}

func TestRunAllJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		hits := make([]int32, n)
		err := RunCtx(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := RunCtx(context.Background(), 0, 8, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunSerialErrorStopsQueue pins the cancellation contract exactly in
// the deterministic single-worker case: jobs after the failing index never
// start.
func TestRunSerialErrorStopsQueue(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := RunCtx(context.Background(), 10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 4 {
		t.Fatalf("jobs ran after the error: %v", ran)
	}
}

// TestRunConcurrentErrorCancels checks that a failure seen by one worker
// stops the others from draining the queue: with the first job failing
// instantly and every other job sleeping, only the handful of jobs already
// in flight may complete.
func TestRunConcurrentErrorCancels(t *testing.T) {
	var started atomic.Int64
	err := RunCtx(context.Background(), 1000, 4, func(i int) error {
		started.Add(1)
		if i == 0 {
			return fmt.Errorf("job %d failed", i)
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("error must propagate")
	}
	if n := started.Load(); n > 100 {
		t.Errorf("%d jobs started after a failure on job 0", n)
	}
}

// TestRunLowestError: with several failures among the jobs that ran, the
// lowest-indexed one is returned no matter which worker saw it first.
func TestRunLowestError(t *testing.T) {
	err := RunCtx(context.Background(), 8, 8, func(i int) error {
		if i >= 4 {
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 4" {
		t.Fatalf("err = %v, want job 4", err)
	}
}

// TestRunCtxCancelledBeforeStart: a context that is already dead means no
// job runs at all and the context's error comes back.
func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunCtx(ctx, 100, 4, func(int) error {
		t.Error("job ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidway: cancelling during the run stops the queue — with
// one worker the indices after the cancelling job never start.
func TestRunCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	err := RunCtx(ctx, 10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != 4 {
		t.Fatalf("jobs ran after cancellation: %v", ran)
	}
}

// TestRunCtxJobErrorBeatsCancel: when a job fails and the context dies in
// the same run, the job's error wins — it is the more specific diagnosis.
func TestRunCtxJobErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunCtx(ctx, 10, 1, func(i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestRunCtxBackgroundMatchesRun: RunCtx under a background context runs
// every job, as the context-free callers (gadget, diffuzz) rely on.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	var hits atomic.Int64
	if err := RunCtx(context.Background(), 50, 8, func(int) error {
		hits.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 50 {
		t.Fatalf("ran %d of 50 jobs", hits.Load())
	}
}

// TestRunWorkerIndex: every job's worker index lies in [0, workers), no
// two jobs running at once share one, and every job runs once. Run under
// -race, the per-index counters also show that a job owns its worker's
// state without a lock.
func TestRunWorkerIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		busy := make([]atomic.Bool, workers)
		owned := make([]int, workers) // written only by the index's owner
		n := 20 * workers
		err := RunCtx(context.Background(), n, workers, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("job %d: worker index %d outside [0, %d)", i, w, workers)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("job %d: worker index %d already running a job", i, w)
			}
			owned[w]++
			time.Sleep(100 * time.Microsecond)
			busy[w].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := 0
		for _, k := range owned {
			total += k
		}
		if total != n {
			t.Fatalf("workers=%d: %d of %d jobs ran", workers, total, n)
		}
	}
}

// TestSemBoundsConcurrency: a Sem with n slots never admits more than n
// concurrent holders, and Acquire respects a dead context.
func TestSemBoundsConcurrency(t *testing.T) {
	s := NewSem(3)
	if s.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", s.Cap())
	}
	var cur, peak atomic.Int64
	if err := RunCtx(context.Background(), 64, 16, func(int) error {
		if err := s.Acquire(context.Background()); err != nil {
			return err
		}
		defer s.Release()
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds 3 slots", p)
	}
	if s.InUse() != 0 {
		t.Errorf("InUse = %d after all releases", s.InUse())
	}

	// Full semaphore: TryAcquire refuses, Acquire honors cancellation.
	for i := 0; i < 3; i++ {
		if !s.TryAcquire() {
			t.Fatal("TryAcquire failed on free slot")
		}
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire succeeded on full semaphore")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on full sem = %v, want context.Canceled", err)
	}
}

// TestSemMinimumOneSlot: a non-positive size still admits one holder.
func TestSemMinimumOneSlot(t *testing.T) {
	s := NewSem(0)
	if s.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", s.Cap())
	}
}
