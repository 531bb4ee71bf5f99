package dist_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nda/internal/serve"
	"nda/internal/store"
)

// TestFleetSharedStoreTier proves the fleet-wide tier end to end: one
// coordinator runs the 92-cell sweep through real workers and persists
// every cell into a shared store; a second coordinator — fresh process
// state, fresh RAM cache, different workers — serves the same sweep
// byte-identically from the shared store without dispatching a single
// cell. The store is deliberately never closed between the two
// (coordinator replicas crash; the tier must not care).
func TestFleetSharedStoreTier(t *testing.T) {
	want := goldenSweep(t)
	dir := t.TempDir()

	shared1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord1, _, mgr1 := startCoordinatorWith(t, serve.Config{SharedStore: shared1}, fleetOpts(), startWorker(t), startWorker(t))

	code, body := post(t, coord1+"/v1/sweep", sweep92())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, coord1, st.ID)
	if st.Tiers.Computed != 92 || st.Tiers.FleetShared != 0 {
		t.Fatalf("cold fleet pass tiers = %+v, want 92 computed", st.Tiers)
	}
	if hits, puts := mgr1.Metrics().SharedHits.Load(), mgr1.Metrics().SharedPuts.Load(); hits != 0 || puts != 92 {
		t.Fatalf("cold pass shared stats: hits=%d puts=%d, want 0/92", hits, puts)
	}
	code, got := get(t, coord1+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("cold fleet sweep (code %d) differs from single-process run", code)
	}

	// A second coordinator replica over the same store directory. shared1
	// was never closed — every Put is already durable on its own.
	shared2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord2, fleet2, mgr2 := startCoordinatorWith(t, serve.Config{SharedStore: shared2}, fleetOpts(), startWorker(t))

	code, body = post(t, coord2+"/v1/sweep", sweep92())
	if code != http.StatusAccepted {
		t.Fatalf("replica submit = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, coord2, st.ID)

	if st.Tiers.FleetShared != 92 || st.Tiers.Computed != 0 {
		t.Errorf("replica tiers = %+v, want 92 fleet_shared / 0 computed", st.Tiers)
	}
	for _, ws := range fleet2.Stats() {
		if ws.Dispatched != 0 {
			t.Errorf("fleet-shared hit dispatched to %s anyway (%d attempts)", ws.Worker, ws.Dispatched)
		}
	}
	if hits, misses := mgr2.Metrics().SharedHits.Load(), mgr2.Metrics().SharedMisses.Load(); hits != 92 || misses != 0 {
		t.Errorf("replica shared stats: hits=%d misses=%d, want 92/0", hits, misses)
	}
	code, got = get(t, coord2+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("replica result = %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("shared-store replay differs from single-process run:\nreplay: %.200s\nlocal:  %.200s", got, want)
	}

	// The shared counters surface on the replica's /metrics.
	_, metrics := get(t, coord2+"/metrics")
	if !strings.Contains(string(metrics), "nda_dist_shared_hits_total 92") {
		t.Error("/metrics missing nda_dist_shared_hits_total 92")
	}
}
