package cliutil

import (
	"strings"
	"testing"
	"time"
)

// TestWorkerURLs: the -workers parser accepts real fleets, means "local"
// on the empty string, and turns every malformed form into a clear error
// instead of a silently wrong fleet.
func TestWorkerURLs(t *testing.T) {
	urls, err := WorkerURLs("http://a:8090, https://b.example/ ,http://127.0.0.1:9000")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:8090", "https://b.example", "http://127.0.0.1:9000"}
	if len(urls) != len(want) {
		t.Fatalf("urls = %v, want %v", urls, want)
	}
	for i := range want {
		if urls[i] != want[i] {
			t.Errorf("urls[%d] = %q, want %q", i, urls[i], want[i])
		}
	}

	if urls, err := WorkerURLs(""); err != nil || urls != nil {
		t.Errorf("empty -workers = %v, %v; want nil, nil (local mode)", urls, err)
	}

	bad := []struct{ csv, wantSub string }{
		{",", "no worker URLs"},
		{" , ", "no worker URLs"},
		{"localhost:8090", "scheme"},   // url.Parse reads "localhost" as the scheme
		{"ftp://a:8090", "scheme"},     // wrong scheme
		{"http://", "missing host"},    // no host
		{"/just/a/path", "scheme"},     // relative
		{"http://a:8090?x=1", "query"}, // query strings never belong in a base URL
		{"http://a:8090,http://a:8090", "duplicate"},
	}
	for _, c := range bad {
		_, err := WorkerURLs(c.csv)
		if err == nil {
			t.Errorf("WorkerURLs(%q) accepted, want error", c.csv)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("WorkerURLs(%q) error %q, want mention of %q", c.csv, err, c.wantSub)
		}
	}
}

// TestWorkerCount: 0 = auto and positives pass; negatives are refused.
func TestWorkerCount(t *testing.T) {
	for _, ok := range []int{0, 1, 64} {
		if n, err := WorkerCount(ok); err != nil || n != ok {
			t.Errorf("WorkerCount(%d) = %d, %v", ok, n, err)
		}
	}
	if _, err := WorkerCount(-1); err == nil {
		t.Error("WorkerCount(-1) accepted, want error")
	}
}

// TestTimeout: 0 = no limit and positives pass; negatives are refused, and
// strictly-positive flags refuse zero too.
func TestTimeout(t *testing.T) {
	for _, ok := range []time.Duration{0, time.Second, time.Hour} {
		if d, err := Timeout(ok); err != nil || d != ok {
			t.Errorf("Timeout(%v) = %v, %v", ok, d, err)
		}
	}
	if _, err := Timeout(-time.Second); err == nil {
		t.Error("Timeout(-1s) accepted, want error")
	}
	if d, err := PositiveDuration("-cell-timeout", time.Minute); err != nil || d != time.Minute {
		t.Errorf("PositiveDuration(1m) = %v, %v", d, err)
	}
	for _, bad := range []time.Duration{0, -time.Second} {
		if _, err := PositiveDuration("-cell-timeout", bad); err == nil {
			t.Errorf("PositiveDuration(%v) accepted, want error", bad)
		} else if !strings.Contains(err.Error(), "-cell-timeout") {
			t.Errorf("PositiveDuration error %q does not name the flag", err)
		}
	}
}

// TestSpecs: the workload-list parser resolves names and rejects unknowns.
func TestSpecs(t *testing.T) {
	specs, err := Specs("gcc, mcf")
	if err != nil || len(specs) != 2 || specs[0].Name != "gcc" || specs[1].Name != "mcf" {
		t.Fatalf("Specs = %v, %v", specs, err)
	}
	all, err := Specs("")
	if err != nil || len(all) < 20 {
		t.Fatalf("Specs(\"\") = %d workloads, %v; want the full SPEC set", len(all), err)
	}
	if _, err := Specs("no-such-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRate: 0 = unlimited; positive finite rates pass; negatives, NaN,
// and absurd magnitudes are refused.
func TestRate(t *testing.T) {
	for _, ok := range []float64{0, 0.5, 100} {
		if r, err := Rate(ok); err != nil || r != ok {
			t.Errorf("Rate(%v) = %v, %v", ok, r, err)
		}
	}
	nan := 0.0
	nan = nan / nan
	for _, bad := range []float64{-1, nan, 1e12} {
		if _, err := Rate(bad); err == nil {
			t.Errorf("Rate(%v) accepted, want error", bad)
		}
	}
}

// TestPasses: empty means all (nil); known names pass in caller order;
// unknown names, duplicates, and all-blank lists are refused.
func TestPasses(t *testing.T) {
	known := []string{"alpha", "beta", "gamma"}
	if got, err := Passes("", known); err != nil || got != nil {
		t.Errorf("Passes(\"\") = %v, %v; want nil, nil", got, err)
	}
	got, err := Passes(" gamma, alpha ", known)
	if err != nil || len(got) != 2 || got[0] != "gamma" || got[1] != "alpha" {
		t.Errorf("Passes(gamma,alpha) = %v, %v", got, err)
	}
	if _, err := Passes("alpha,delta", known); err == nil || !strings.Contains(err.Error(), "delta") {
		t.Errorf("unknown pass accepted: %v", err)
	}
	if _, err := Passes("alpha,alpha", known); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate pass accepted: %v", err)
	}
	if _, err := Passes(" , ", known); err == nil {
		t.Error("all-blank pass list accepted, want error")
	}
}
