package serve

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"nda/internal/dist"
	"nda/internal/tenant"
)

// Metrics is the service's counter block, exposed as Prometheus-style text
// on GET /metrics. All counters are atomics so job workers, cell
// simulations, and the HTTP handlers update them without locking.
type Metrics struct {
	start time.Time

	JobsQueued    atomic.Int64 // jobs accepted into the queue (lifetime)
	JobsRejected  atomic.Int64 // submissions bounced on a full queue (429s)
	QuotaRejected atomic.Int64 // submissions bounced by a tenant rate quota (429s)
	JobsRunning   atomic.Int64 // jobs currently executing (gauge)
	JobsDone      atomic.Int64 // jobs finished successfully
	JobsFailed    atomic.Int64 // jobs finished with an error
	JobsCancelled atomic.Int64 // jobs ended by cancellation or timeout

	// AdmissionStoreServed counts jobs accepted past a saturated queue
	// because every cell was already resolvable from the RAM/disk tiers.
	AdmissionStoreServed atomic.Int64

	CacheHits         atomic.Int64 // cells served without leaving this process (RAM or disk)
	CacheMisses       atomic.Int64 // cells that had to simulate or dispatch
	CacheDiskHits     atomic.Int64 // subset of CacheHits served from the persistent store
	CacheEvictions    atomic.Int64 // ready entries dropped by the LRU cap
	CacheEvictedBytes atomic.Int64 // approximate encoded bytes those evictions released

	CellsServed atomic.Int64 // worker-side /v1/cell requests completed

	Simulations     atomic.Int64 // detailed simulations actually run
	CyclesSimulated atomic.Int64 // total measured cycles across them
}

// NewMetrics returns a counter block anchored at the current time (the
// cycles-per-second rate and uptime are measured from here).
func NewMetrics() *Metrics {
	//ndavet:allow detlint uptime anchor for /metrics; never reaches simulation results
	return &Metrics{start: time.Now()}
}

// CyclesPerSecond is the lifetime average simulation throughput.
func (m *Metrics) CyclesPerSecond() float64 {
	//ndavet:allow detlint throughput gauge on /metrics; observability only, not in any result
	secs := time.Since(m.start).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(m.CyclesSimulated.Load()) / secs
}

// RenderMetrics composes the full /metrics payload in the Prometheus text
// exposition format: the counter block, live RAM-tier gauges, the
// persistent and fleet-shared stores' counters when they are configured,
// the fleet block (from dist.Coordinator.Stats) when running as a
// coordinator, and the per-tenant block when tenants are declared.
func (m *Manager) RenderMetrics() string {
	var b strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	mt := m.metrics
	counter("nda_jobs_queued_total", "jobs accepted into the queue", mt.JobsQueued.Load())
	counter("nda_jobs_rejected_total", "submissions rejected because the queue was full", mt.JobsRejected.Load())
	counter("nda_jobs_quota_rejected_total", "submissions rejected by a tenant rate quota", mt.QuotaRejected.Load())
	counter("nda_admission_store_served_total", "jobs admitted past a saturated queue because the store held every cell", mt.AdmissionStoreServed.Load())
	counter("nda_jobs_done_total", "jobs finished successfully", mt.JobsDone.Load())
	counter("nda_jobs_failed_total", "jobs finished with an error", mt.JobsFailed.Load())
	counter("nda_jobs_cancelled_total", "jobs ended by cancellation or timeout", mt.JobsCancelled.Load())
	counter("nda_cache_hits_total", "simulation cells served from the result cache", mt.CacheHits.Load())
	counter("nda_cache_misses_total", "simulation cells that had to simulate", mt.CacheMisses.Load())
	counter("nda_cache_disk_hits_total", "result-cache hits served by the persistent store tier", mt.CacheDiskHits.Load())
	counter("nda_cache_evictions_total", "result-cache entries evicted by the LRU cap", mt.CacheEvictions.Load())
	counter("nda_cache_evicted_bytes_total", "approximate encoded bytes released by those evictions", mt.CacheEvictedBytes.Load())
	counter("nda_cells_served_total", "worker-side /v1/cell requests completed", mt.CellsServed.Load())
	counter("nda_simulations_total", "detailed simulations run", mt.Simulations.Load())
	counter("nda_cycles_simulated_total", "measured cycles across all simulations", mt.CyclesSimulated.Load())
	gauge("nda_jobs_running", "jobs currently executing", mt.JobsRunning.Load())
	fmt.Fprintf(&b, "# HELP nda_cycles_per_second lifetime average simulated cycles per second\n# TYPE nda_cycles_per_second gauge\nnda_cycles_per_second %.1f\n", mt.CyclesPerSecond())
	//ndavet:allow detlint uptime gauge on /metrics; observability only, not in any result
	fmt.Fprintf(&b, "# HELP nda_uptime_seconds seconds since the service started\n# TYPE nda_uptime_seconds gauge\nnda_uptime_seconds %.1f\n", time.Since(mt.start).Seconds())
	gauge("nda_cache_entries", "result-cache entries resident in RAM (ready or in flight)", int64(m.cache.Len()))
	gauge("nda_cache_bytes", "approximate encoded bytes of ready RAM-tier entries", m.cache.Bytes())
	if s := m.cfg.Store; s != nil {
		c := s.Counters()
		gauge("nda_store_entries", "entries resident in the persistent store", int64(c.Entries))
		gauge("nda_store_bytes", "bytes held by the persistent store (headers and keys included)", c.Bytes)
		gauge("nda_store_max_bytes", "the persistent store's byte budget", c.MaxBytes)
		counter("nda_store_hits_total", "lookups the persistent store served", c.Hits)
		counter("nda_store_misses_total", "lookups the persistent store did not hold", c.Misses)
		counter("nda_store_puts_total", "entries written to the persistent store", c.Puts)
		counter("nda_store_put_errors_total", "writes the persistent store could not complete", c.PutErrors)
		counter("nda_store_evictions_total", "entries evicted by the store's byte budget", c.Evictions)
		counter("nda_store_evicted_bytes_total", "bytes released by those evictions", c.EvictedBytes)
		counter("nda_store_dropped_on_open_total", "invalid entries dropped during open-time recovery", c.DroppedOnOpen)
	}
	if s := m.cfg.SharedStore; s != nil {
		c := s.Counters()
		counter("nda_dist_shared_hits_total", "cells served from the fleet-shared store without dispatching", c.Hits)
		counter("nda_dist_shared_misses_total", "cells the fleet-shared store did not hold", c.Misses)
		counter("nda_dist_shared_puts_total", "completed cells written back to the fleet-shared store", c.Puts)
	}
	if f := m.cfg.Fleet; f != nil {
		type ws = dist.WorkerStats
		series := labelled(&b, "worker", f.Stats(), func(s ws) string { return s.Worker })
		series("nda_dist_dispatched_total", "cell attempts dispatched to this worker", "counter", func(s ws) int64 { return s.Dispatched })
		series("nda_dist_succeeded_total", "cell attempts this worker answered successfully", "counter", func(s ws) int64 { return s.Succeeded })
		series("nda_dist_retried_total", "retry attempts dispatched to this worker", "counter", func(s ws) int64 { return s.Retried })
		series("nda_dist_hedged_total", "hedge attempts dispatched to this worker", "counter", func(s ws) int64 { return s.Hedged })
		series("nda_dist_evicted_total", "times this worker was evicted from the rotation", "counter", func(s ws) int64 { return s.Evicted })
		series("nda_dist_readmitted_total", "times this worker was re-admitted after eviction", "counter", func(s ws) int64 { return s.Readmitted })
		series("nda_dist_inflight", "cells currently in flight to this worker (queue depth)", "gauge", func(s ws) int64 { return int64(s.InFlight) })
		series("nda_dist_healthy", "1 if the worker is in the dispatch rotation", "gauge", func(s ws) int64 {
			if s.Healthy {
				return 1
			}
			return 0
		})
	}
	if stats := m.TenantStats(); len(stats) > 0 {
		type ts = tenant.Stats
		series := labelled(&b, "tenant", stats, func(s ts) string { return s.Name })
		series("nda_tenant_queued", "jobs waiting in the fair-share queue per tenant", "gauge", func(s ts) int64 { return int64(s.Queued) })
		series("nda_tenant_running", "jobs currently dispatched per tenant", "gauge", func(s ts) int64 { return int64(s.Running) })
		series("nda_tenant_admitted_total", "submissions admitted past the rate quota per tenant", "counter", func(s ts) int64 { return int64(s.Admitted) })
		series("nda_tenant_dispatched_total", "jobs dispatched to workers per tenant", "counter", func(s ts) int64 { return int64(s.Dispatched) })
		series("nda_tenant_dropped_total", "submissions dropped by quota or queue bound per tenant", "counter", func(s ts) int64 { return int64(s.Dropped) })
	}
	return b.String()
}

// labelled returns a writer of metric families with one series per row,
// each labelled label="key(row)": the fleet block has one per worker, the
// tenant block one per tenant.
func labelled[R any](b *strings.Builder, label string, rows []R, key func(R) string) func(name, help, typ string, value func(R) int64) {
	return func(name, help, typ string, value func(R) int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, r := range rows {
			fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, key(r), value(r))
		}
	}
}
