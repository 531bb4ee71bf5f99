package tenant

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseListFull(t *testing.T) {
	ts, err := ParseList("alice:ka:4:2.5:5:3, bob:kb")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d tenants, want 2", len(ts))
	}
	a := ts[0]
	if a.Name != "alice" || a.Key != "ka" || a.Weight != 4 || a.Rate != 2.5 || a.Burst != 5 || a.MaxInFlight != 3 {
		t.Fatalf("alice parsed wrong: %+v", a)
	}
	b := ts[1]
	if b.Name != "bob" || b.Key != "kb" || b.Weight != 1 || b.Rate != 0 || b.MaxInFlight != 0 {
		t.Fatalf("bob defaults wrong: %+v", b)
	}
}

func TestParseListEmptyFieldsKeepDefaults(t *testing.T) {
	ts, err := ParseList("alice:ka::10")
	if err != nil {
		t.Fatal(err)
	}
	a := ts[0]
	if a.Weight != 1 || a.Rate != 10 {
		t.Fatalf("got weight=%d rate=%g, want weight=1 rate=10", a.Weight, a.Rate)
	}
	// Burst defaults to max(1, Rate).
	if a.Burst != 10 {
		t.Fatalf("got burst=%g, want 10", a.Burst)
	}
}

func TestParseListEmptyStringIsNoTenants(t *testing.T) {
	for _, in := range []string{"", "  "} {
		if ts, err := ParseList(in); err != nil || ts != nil {
			t.Fatalf("ParseList(%q) = %v, %v; want nil, nil", in, ts, err)
		}
	}
}

func TestParseListRejections(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"alice", "want name:key"},
		{"alice:ka:x", "bad weight"},
		{"alice:ka:0:-1", "rate -1 invalid"},
		{"alice:ka:1:1:0:-2", "max in-flight -2 invalid"},
		{"alice:ka:1001", "weight 1001 invalid"},
		{":ka", "empty tenant name"},
		{"alice:", "empty API key"},
		{"local:ka", "reserved"},
		{"alice:ka,alice:kb", "duplicate tenant name"},
		{"alice:ka,bob:ka", "duplicate API key"},
		{",,", "no tenant entries"},
	}
	for _, c := range cases {
		_, err := ParseList(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseList(%q) = %v, want error containing %q", c.in, err, c.want)
		}
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": Batch, "interactive": Interactive, "batch": Batch, "warm": Warm} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Error("ParseClass(bulk) accepted")
	}
}

func TestBucketAdmitAndRetryAfter(t *testing.T) {
	s := NewScheduler([]Tenant{{Name: "a", Key: "k", Rate: 2, Burst: 2}}, 8)
	t0 := time.Unix(1000, 0)
	// A fresh bucket starts full: burst of 2 admits twice.
	for i := 0; i < 2; i++ {
		if err := s.Admit("a", t0); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err := s.Admit("a", t0)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want QuotaError", err)
	}
	// Empty bucket at rate 2/s: a full token takes 500ms.
	if qe.Tenant != "a" || qe.RetryAfter != 500*time.Millisecond {
		t.Fatalf("got %+v, want tenant a, retry 500ms", qe)
	}
	// After the advertised wait the token is there.
	if err := s.Admit("a", t0.Add(qe.RetryAfter)); err != nil {
		t.Fatalf("admit after retry-after: %v", err)
	}
	// Refill is capped at burst: a long sleep doesn't bank unlimited tokens.
	t1 := t0.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if err := s.Admit("a", t1); err != nil {
			t.Fatalf("post-idle admit %d: %v", i, err)
		}
	}
	if err := s.Admit("a", t1); err == nil {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

func TestAdmitUnlimitedAndUnknown(t *testing.T) {
	s := NewScheduler([]Tenant{{Name: "a", Key: "k"}}, 4)
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		if err := s.Admit("a", now); err != nil {
			t.Fatalf("unlimited tenant rejected: %v", err)
		}
	}
	if err := s.Admit("ghost", now); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("got %v, want ErrUnknownTenant", err)
	}
	if err := s.Admit(LocalName, now); err != nil {
		t.Fatalf("local tenant rejected: %v", err)
	}
}

func TestQuotaErrorMessage(t *testing.T) {
	e := &QuotaError{Tenant: "a", RetryAfter: time.Second}
	if !strings.Contains(e.Error(), "a") || !strings.Contains(e.Error(), "1s") {
		t.Fatalf("unhelpful error: %q", e.Error())
	}
}

// TestBurstBelowOneClampsToOne: bucket.take caps tokens at the burst
// depth, so a configured depth in (0,1) would reject every submission
// forever while advertising Retry-After times that never help. normalize
// clamps such depths to one token, and the advertised retry then works.
func TestBurstBelowOneClampsToOne(t *testing.T) {
	ts, err := ParseList("alice:ka:1:2:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Burst != 1 {
		t.Fatalf("burst 0.25 normalized to %g, want clamp to 1", ts[0].Burst)
	}
	// The same clamp applies to the defaulted depth at sub-1 rates.
	ts, err = ParseList("bob:kb:1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Burst != 1 {
		t.Fatalf("defaulted burst at rate 0.5 = %g, want 1", ts[0].Burst)
	}

	s := NewScheduler([]Tenant{{Name: "a", Key: "k", Rate: 2, Burst: 0.5}}, 8)
	t0 := time.Unix(1000, 0)
	if err := s.Admit("a", t0); err != nil {
		t.Fatalf("first admit with clamped burst: %v", err)
	}
	err = s.Admit("a", t0)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want QuotaError", err)
	}
	if err := s.Admit("a", t0.Add(qe.RetryAfter)); err != nil {
		t.Fatalf("admit at the advertised retry time: %v", err)
	}
}
