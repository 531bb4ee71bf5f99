package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nda/internal/dist"
	"nda/internal/store"
)

// TestMetricsExposition pins the whole /metrics payload of a fresh
// coordinator that has every optional block switched on: a disk store, a
// separate fleet-shared store, a one-worker fleet and two tenants. Every
// HELP and TYPE line, every series name and label and every value is
// fixed, except the two wall-clock gauges, whose values are masked, and
// the worker's URL, which varies with the test server's port.
func TestMetricsExposition(t *testing.T) {
	disk, err := store.Open(t.TempDir(), store.Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := store.Open(t.TempDir(), store.Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	t.Cleanup(worker.Close)
	fleet, err := dist.New([]string{worker.URL}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	m := NewManager(Config{QueueDepth: 4, JobWorkers: 1, Fleet: fleet, Store: disk, SharedStore: shared, Tenants: twoTenants()})
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	srv := startServer(t, m)

	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	for i, l := range lines {
		for _, name := range []string{"nda_uptime_seconds ", "nda_cycles_per_second "} {
			if strings.HasPrefix(l, name) {
				lines[i] = name + "*"
			}
		}
		lines[i] = strings.ReplaceAll(lines[i], worker.URL, "WORKER")
	}
	if got := strings.Join(lines, "\n"); got != metricsExposition {
		t.Errorf("/metrics drifted:\ngot:\n%s\n\nwant:\n%s", got, metricsExposition)
	}
}

const metricsExposition = `# HELP nda_jobs_queued_total jobs accepted into the queue
# TYPE nda_jobs_queued_total counter
nda_jobs_queued_total 0
# HELP nda_jobs_rejected_total submissions rejected because the queue was full
# TYPE nda_jobs_rejected_total counter
nda_jobs_rejected_total 0
# HELP nda_jobs_quota_rejected_total submissions rejected by a tenant rate quota
# TYPE nda_jobs_quota_rejected_total counter
nda_jobs_quota_rejected_total 0
# HELP nda_admission_store_served_total jobs admitted past a saturated queue because the store held every cell
# TYPE nda_admission_store_served_total counter
nda_admission_store_served_total 0
# HELP nda_jobs_done_total jobs finished successfully
# TYPE nda_jobs_done_total counter
nda_jobs_done_total 0
# HELP nda_jobs_failed_total jobs finished with an error
# TYPE nda_jobs_failed_total counter
nda_jobs_failed_total 0
# HELP nda_jobs_cancelled_total jobs ended by cancellation or timeout
# TYPE nda_jobs_cancelled_total counter
nda_jobs_cancelled_total 0
# HELP nda_cache_hits_total simulation cells served from the result cache
# TYPE nda_cache_hits_total counter
nda_cache_hits_total 0
# HELP nda_cache_misses_total simulation cells that had to simulate
# TYPE nda_cache_misses_total counter
nda_cache_misses_total 0
# HELP nda_cache_disk_hits_total result-cache hits served by the persistent store tier
# TYPE nda_cache_disk_hits_total counter
nda_cache_disk_hits_total 0
# HELP nda_cache_evictions_total result-cache entries evicted by the LRU cap
# TYPE nda_cache_evictions_total counter
nda_cache_evictions_total 0
# HELP nda_cache_evicted_bytes_total approximate encoded bytes released by those evictions
# TYPE nda_cache_evicted_bytes_total counter
nda_cache_evicted_bytes_total 0
# HELP nda_cells_served_total worker-side /v1/cell requests completed
# TYPE nda_cells_served_total counter
nda_cells_served_total 0
# HELP nda_simulations_total detailed simulations run
# TYPE nda_simulations_total counter
nda_simulations_total 0
# HELP nda_cycles_simulated_total measured cycles across all simulations
# TYPE nda_cycles_simulated_total counter
nda_cycles_simulated_total 0
# HELP nda_jobs_running jobs currently executing
# TYPE nda_jobs_running gauge
nda_jobs_running 0
# HELP nda_cycles_per_second lifetime average simulated cycles per second
# TYPE nda_cycles_per_second gauge
nda_cycles_per_second *
# HELP nda_uptime_seconds seconds since the service started
# TYPE nda_uptime_seconds gauge
nda_uptime_seconds *
# HELP nda_cache_entries result-cache entries resident in RAM (ready or in flight)
# TYPE nda_cache_entries gauge
nda_cache_entries 0
# HELP nda_cache_bytes approximate encoded bytes of ready RAM-tier entries
# TYPE nda_cache_bytes gauge
nda_cache_bytes 0
# HELP nda_store_entries entries resident in the persistent store
# TYPE nda_store_entries gauge
nda_store_entries 0
# HELP nda_store_bytes bytes held by the persistent store (headers and keys included)
# TYPE nda_store_bytes gauge
nda_store_bytes 0
# HELP nda_store_max_bytes the persistent store's byte budget
# TYPE nda_store_max_bytes gauge
nda_store_max_bytes 1048576
# HELP nda_store_hits_total lookups the persistent store served
# TYPE nda_store_hits_total counter
nda_store_hits_total 0
# HELP nda_store_misses_total lookups the persistent store did not hold
# TYPE nda_store_misses_total counter
nda_store_misses_total 0
# HELP nda_store_puts_total entries written to the persistent store
# TYPE nda_store_puts_total counter
nda_store_puts_total 0
# HELP nda_store_put_errors_total writes the persistent store could not complete
# TYPE nda_store_put_errors_total counter
nda_store_put_errors_total 0
# HELP nda_store_evictions_total entries evicted by the store's byte budget
# TYPE nda_store_evictions_total counter
nda_store_evictions_total 0
# HELP nda_store_evicted_bytes_total bytes released by those evictions
# TYPE nda_store_evicted_bytes_total counter
nda_store_evicted_bytes_total 0
# HELP nda_store_dropped_on_open_total invalid entries dropped during open-time recovery
# TYPE nda_store_dropped_on_open_total counter
nda_store_dropped_on_open_total 0
# HELP nda_dist_shared_hits_total cells served from the fleet-shared store without dispatching
# TYPE nda_dist_shared_hits_total counter
nda_dist_shared_hits_total 0
# HELP nda_dist_shared_misses_total cells the fleet-shared store did not hold
# TYPE nda_dist_shared_misses_total counter
nda_dist_shared_misses_total 0
# HELP nda_dist_shared_puts_total completed cells written back to the fleet-shared store
# TYPE nda_dist_shared_puts_total counter
nda_dist_shared_puts_total 0
# HELP nda_dist_dispatched_total cell attempts dispatched to this worker
# TYPE nda_dist_dispatched_total counter
nda_dist_dispatched_total{worker="WORKER"} 0
# HELP nda_dist_succeeded_total cell attempts this worker answered successfully
# TYPE nda_dist_succeeded_total counter
nda_dist_succeeded_total{worker="WORKER"} 0
# HELP nda_dist_retried_total retry attempts dispatched to this worker
# TYPE nda_dist_retried_total counter
nda_dist_retried_total{worker="WORKER"} 0
# HELP nda_dist_hedged_total hedge attempts dispatched to this worker
# TYPE nda_dist_hedged_total counter
nda_dist_hedged_total{worker="WORKER"} 0
# HELP nda_dist_evicted_total times this worker was evicted from the rotation
# TYPE nda_dist_evicted_total counter
nda_dist_evicted_total{worker="WORKER"} 0
# HELP nda_dist_readmitted_total times this worker was re-admitted after eviction
# TYPE nda_dist_readmitted_total counter
nda_dist_readmitted_total{worker="WORKER"} 0
# HELP nda_dist_inflight cells currently in flight to this worker (queue depth)
# TYPE nda_dist_inflight gauge
nda_dist_inflight{worker="WORKER"} 0
# HELP nda_dist_healthy 1 if the worker is in the dispatch rotation
# TYPE nda_dist_healthy gauge
nda_dist_healthy{worker="WORKER"} 1
# HELP nda_tenant_queued jobs waiting in the fair-share queue per tenant
# TYPE nda_tenant_queued gauge
nda_tenant_queued{tenant="alice"} 0
nda_tenant_queued{tenant="bob"} 0
# HELP nda_tenant_running jobs currently dispatched per tenant
# TYPE nda_tenant_running gauge
nda_tenant_running{tenant="alice"} 0
nda_tenant_running{tenant="bob"} 0
# HELP nda_tenant_admitted_total submissions admitted past the rate quota per tenant
# TYPE nda_tenant_admitted_total counter
nda_tenant_admitted_total{tenant="alice"} 0
nda_tenant_admitted_total{tenant="bob"} 0
# HELP nda_tenant_dispatched_total jobs dispatched to workers per tenant
# TYPE nda_tenant_dispatched_total counter
nda_tenant_dispatched_total{tenant="alice"} 0
nda_tenant_dispatched_total{tenant="bob"} 0
# HELP nda_tenant_dropped_total submissions dropped by quota or queue bound per tenant
# TYPE nda_tenant_dropped_total counter
nda_tenant_dropped_total{tenant="alice"} 0
nda_tenant_dropped_total{tenant="bob"} 0`
