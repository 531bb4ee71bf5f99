// Command ndaserve runs the simulator as a long-lived HTTP service: a job
// queue with backpressure, a content-addressed result cache that serves
// repeated sweeps, attack matrices, and gadget censuses without
// re-simulation, and Prometheus-style metrics.
//
//	ndaserve                          # listen on :8090
//	ndaserve -addr :9000 -queue 32 -job-workers 4
//
//	curl localhost:8090/healthz
//	curl -X POST 'localhost:8090/v1/sweep?wait=1' -d '{"workloads":["gcc"],"sampling":{"quick":true}}'
//	curl -X POST localhost:8090/v1/attack -d '{"attacks":["meltdown"]}'
//	curl localhost:8090/v1/jobs/job-000002
//	curl localhost:8090/metrics
//
// With -workers the process becomes a fleet coordinator instead of a
// simulator: jobs are decomposed into cells exactly as before, but cells
// that miss every cache tier are dispatched to the listed ndaserve
// workers over POST /v1/cell, with bounded per-worker in-flight windows,
// per-cell retry with backoff, health-based eviction/re-admission, and
// hedged dispatch for stragglers. The merged result is byte-identical to
// a local run.
//
//	ndaserve -addr :8090 -workers http://sim1:8090,http://sim2:8090
//
// With -store-dir the result cache gains a persistent disk tier: every
// completed cell is written durably (atomic temp-file + rename), so a
// restarted — or kill -9'd — process serves earlier results from disk,
// byte-identically and without re-simulation. -store-max-bytes bounds the
// directory; least-recently-used cells are evicted beyond it. A
// coordinator can additionally share a store across replicas with
// -shared-store-dir: its tier chain consults that store after RAM and the
// local disk store, so cells found there are never dispatched to a worker,
// and it writes every dispatched cell back into it.
// -warm-from submits a precompute job at boot ("standard" or a JSON file),
// which replays straight from the store after a restart.
//
//	ndaserve -store-dir /var/lib/nda -warm-from standard
//
// On SIGINT/SIGTERM the server stops accepting work and drains: queued and
// in-flight jobs finish (bounded by -drain-timeout, after which they are
// cancelled), then the process exits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"nda/internal/cliutil"
	"nda/internal/dist"
	"nda/internal/serve"
	"nda/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		queueDepth   = flag.Int("queue", 16, "bounded job queue depth; a full queue answers 429")
		jobWorkers   = flag.Int("job-workers", 2, "jobs executing concurrently")
		simWorkers   = flag.Int("sim-workers", 0, "simulation goroutines per job (0 = one per CPU)")
		cacheMax     = flag.Int("cache-max-entries", serve.DefaultCacheMaxEntries, "result-cache LRU capacity in entries; evictions show on /metrics")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for jobs to drain before cancelling them")
		tenantsFlag  = flag.String("tenants", "", "comma-separated API-key tenants name:key:weight[:rate[:burst[:inflight]]]; empty = single-tenant, no auth")

		// Persistent store tiers.
		storeDir      = flag.String("store-dir", "", "directory for the persistent result store (disk tier under the RAM cache); empty disables persistence")
		storeMaxBytes = flag.Int64("store-max-bytes", store.DefaultMaxBytes, "byte budget for the persistent store; least-recently-used entries beyond it are evicted")
		sharedDir     = flag.String("shared-store-dir", "", "coordinator mode: directory of the fleet-shared result store, consulted after RAM and -store-dir before any dispatch (reuses -store-dir's store when equal)")
		warmFrom      = flag.String("warm-from", "", `submit a cache-warming job at boot: "standard" for the paper's figure set, or a path to a WarmRequest JSON file`)

		// Coordinator mode.
		workers      = flag.String("workers", "", "comma-separated worker ndaserve URLs; non-empty enables coordinator mode")
		workerWindow = flag.Int("worker-window", dist.DefaultWindow, "max in-flight cells per worker")
		cellTimeout  = flag.Duration("cell-timeout", dist.DefaultCellTimeout, "per-attempt timeout for one remote cell")
		cellRetries  = flag.Int("cell-retries", dist.DefaultRetries, "re-dispatches of a failed cell before the job fails")
		hedgeAfter   = flag.Duration("hedge-after", 15*time.Second, "dispatch a straggling cell to a second worker after this long (0 disables)")
	)
	flag.Parse()
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndaserve: %v\n", err)
			os.Exit(2)
		}
	}

	simN, err := cliutil.WorkerCount(*simWorkers)
	fatal(err)
	if *queueDepth < 1 {
		fatal(fmt.Errorf("-queue %d invalid: want a positive depth", *queueDepth))
	}
	if *jobWorkers < 1 {
		fatal(fmt.Errorf("-job-workers %d invalid: want a positive count", *jobWorkers))
	}
	if *cacheMax < 1 {
		fatal(fmt.Errorf("-cache-max-entries %d invalid: want a positive capacity", *cacheMax))
	}
	urls, err := cliutil.WorkerURLs(*workers)
	fatal(err)
	tenants, err := cliutil.Tenants(*tenantsFlag)
	fatal(err)

	// Open the persistent tiers before anything can enqueue work. The two
	// flags may name the same directory — then one store instance serves
	// as both the local disk tier and the fleet-shared tier (a single
	// store must never be opened twice in one process).
	var diskStore *store.Store
	if *storeDir != "" {
		if *storeMaxBytes < 1 {
			fatal(fmt.Errorf("-store-max-bytes %d invalid: want a positive budget", *storeMaxBytes))
		}
		diskStore, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMaxBytes})
		fatal(err)
		defer diskStore.Close()
		c := diskStore.Counters()
		fmt.Fprintf(os.Stderr, "ndaserve: store %s: %d entries, %d bytes (budget %d)\n", *storeDir, c.Entries, c.Bytes, c.MaxBytes)
		if c.DroppedOnOpen > 0 {
			fmt.Fprintf(os.Stderr, "ndaserve: store recovery dropped %d invalid entries\n", c.DroppedOnOpen)
		}
	}
	var sharedStore *store.Store
	switch {
	case *sharedDir == "":
	case len(urls) == 0:
		fatal(fmt.Errorf("-shared-store-dir requires coordinator mode (-workers)"))
	case *sharedDir == *storeDir:
		sharedStore = diskStore
	default:
		sharedStore, err = store.Open(*sharedDir, store.Options{MaxBytes: *storeMaxBytes})
		fatal(err)
		defer sharedStore.Close()
	}

	var fleet *dist.Coordinator
	if len(urls) > 0 {
		if *workerWindow < 1 {
			fatal(fmt.Errorf("-worker-window %d invalid: want a positive window", *workerWindow))
		}
		if _, err := cliutil.PositiveDuration("-cell-timeout", *cellTimeout); err != nil {
			fatal(err)
		}
		if *cellRetries < 0 {
			fatal(fmt.Errorf("-cell-retries %d invalid: want 0 or more", *cellRetries))
		}
		if *hedgeAfter < 0 {
			fatal(fmt.Errorf("-hedge-after %v invalid: want 0 (disabled) or a positive duration", *hedgeAfter))
		}
		fleet, err = dist.New(urls, dist.Options{
			Window:      *workerWindow,
			CellTimeout: *cellTimeout,
			Retries:     *cellRetries,
			HedgeAfter:  *hedgeAfter,
		})
		fatal(err)
		defer fleet.Close()
		fmt.Fprintf(os.Stderr, "ndaserve: coordinating %d workers (window %d/worker)\n", len(urls), *workerWindow)
	}

	mgr := serve.NewManager(serve.Config{
		QueueDepth:      *queueDepth,
		JobWorkers:      *jobWorkers,
		SimWorkers:      simN,
		CacheMaxEntries: *cacheMax,
		Fleet:           fleet,
		Store:           diskStore,
		SharedStore:     sharedStore,
		Tenants:         tenants,
	})
	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(mgr)}
	if len(tenants) > 0 {
		fmt.Fprintf(os.Stderr, "ndaserve: fair-share scheduling across %d tenants (API keys required)\n", len(tenants))
	}

	if *warmFrom != "" {
		req, err := loadWarmRequest(*warmFrom)
		fatal(err)
		j, err := mgr.SubmitWarm(req)
		fatal(err)
		fmt.Fprintf(os.Stderr, "ndaserve: warming cache (%s, job %s)\n", *warmFrom, j.ID())
	}

	// The signal context governs the serving phase only: once it fires we
	// stop listening, then drain the manager on its own budget.
	ctx, stop := cliutil.Context(0)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ndaserve: listening on %s\n", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		cliutil.Check("ndaserve", err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "ndaserve: draining (new submissions rejected)...")
	drainCtx, cancel := cliutil.Context(*drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain jobs.
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "ndaserve: http shutdown: %v\n", err)
	}
	if err := mgr.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ndaserve: drain incomplete, jobs cancelled: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ndaserve: drained cleanly")
}

// loadWarmRequest resolves the -warm-from argument: the literal "standard"
// selects the built-in figure set (an empty WarmRequest — the manager
// substitutes serve.StandardWarm), anything else is a path to a
// WarmRequest JSON file.
func loadWarmRequest(arg string) (serve.WarmRequest, error) {
	var req serve.WarmRequest
	if arg == "standard" {
		return req, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return req, fmt.Errorf("-warm-from: %w", err)
	}
	if err := json.Unmarshal(b, &req); err != nil {
		return req, fmt.Errorf("-warm-from %s: %w", arg, err)
	}
	return req, nil
}
