package tenant

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// drain dispatches until no flow is eligible, returning the tenant order.
func drain(s *Scheduler) []string {
	var order []string
	for {
		_, name, _, ok := s.Next()
		if !ok {
			return order
		}
		order = append(order, name)
		s.Release(name)
	}
}

func fill(t *testing.T, s *Scheduler, name string, class Class, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Enqueue(name, class, fmt.Sprintf("%s/%s/%d", name, class, i)); err != nil {
			t.Fatalf("enqueue %s: %v", name, err)
		}
	}
}

func TestWeightedShares(t *testing.T) {
	s := NewScheduler([]Tenant{
		{Name: "heavy", Key: "kh", Weight: 4},
		{Name: "light", Key: "kl", Weight: 1},
	}, 100)
	fill(t, s, "heavy", Batch, 50)
	fill(t, s, "light", Batch, 50)
	order := drain(s)
	// Over the window where both are backlogged (first 50 light dispatches
	// interleaved), heavy gets 4 of every 5 slots. Count heavy dispatches
	// before light's backlog drains.
	heavyBefore := 0
	lightSeen := 0
	for _, n := range order {
		if n == "light" {
			lightSeen++
			if lightSeen == 10 {
				break
			}
		} else {
			heavyBefore++
		}
	}
	// 10 light dispatches should bracket ~40 heavy ones (±1 for phase).
	if heavyBefore < 36 || heavyBefore > 44 {
		t.Fatalf("heavy got %d dispatches per 10 light, want ~40", heavyBefore)
	}
}

func TestDeterministicDispatchOrder(t *testing.T) {
	build := func(seed int64) []string {
		s := NewScheduler([]Tenant{
			{Name: "a", Key: "ka", Weight: 3},
			{Name: "b", Key: "kb", Weight: 2},
			{Name: "c", Key: "kc", Weight: 1},
		}, 1000)
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c"}
		classes := []Class{Interactive, Batch, Warm}
		for i := 0; i < 300; i++ {
			n := names[rng.Intn(len(names))]
			c := classes[rng.Intn(len(classes))]
			if err := s.Enqueue(n, c, i); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
		}
		return drain(s)
	}
	a, b := build(42), build(42)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("same seeded arrival sequence produced different dispatch orders")
	}
	if len(a) != 300 {
		t.Fatalf("drained %d, want 300", len(a))
	}
}

func TestPinnedDispatchOrder(t *testing.T) {
	// A golden micro-trace: any change to tie-breaking or stride arithmetic
	// shows up as a loud diff here.
	s := NewScheduler([]Tenant{
		{Name: "a", Key: "ka", Weight: 2},
		{Name: "b", Key: "kb", Weight: 1},
	}, 32)
	fill(t, s, "b", Batch, 4)
	fill(t, s, "a", Batch, 4)
	fill(t, s, "a", Warm, 2)
	fill(t, s, "b", Interactive, 1)
	got := strings.Join(drain(s), ",")
	// All flows start at pass 0; ties go to scan order (sorted tenant name,
	// then interactive > batch > warm), after which strides separate them:
	// a/batch (stride 2^30/20) runs 2× as often as b/batch (2^30/10),
	// b/interactive jumps the line once, and a's warm jobs trail.
	want := "a,a,b,b,a,a,b,a,b,b,a"
	if got != want {
		t.Fatalf("dispatch order\n got %s\nwant %s", got, want)
	}
}

func TestNoStarvationOfLowestWeightTenant(t *testing.T) {
	s := NewScheduler([]Tenant{
		{Name: "greedy", Key: "kg", Weight: MaxWeight},
		{Name: "meek", Key: "km", Weight: 1},
	}, 100000)
	fill(t, s, "greedy", Interactive, 50000)
	fill(t, s, "meek", Warm, 1)
	// The meek warm job (effective weight 1) against greedy interactive
	// (effective weight 100 000) must still dispatch within one full stride
	// ratio: ≤ strideScale/1 virtual time ⇒ ≤ 100 000 greedy dispatches.
	for i := 0; i < 100001; i++ {
		_, name, _, ok := s.Next()
		if !ok {
			t.Fatal("queue drained before meek dispatched")
		}
		s.Release(name)
		if name == "meek" {
			if i == 0 {
				t.Fatal("meek dispatched first; expected greedy to lead")
			}
			return
		}
	}
	t.Fatal("meek tenant starved beyond the stride bound")
}

func TestClassPriorityWithoutStarvation(t *testing.T) {
	s := NewScheduler([]Tenant{{Name: "a", Key: "ka"}}, 4000)
	fill(t, s, "a", Warm, 5)
	fill(t, s, "a", Interactive, 1000)
	var warmAt []int
	pos := 0
	for {
		_, _, class, ok := s.Next()
		if !ok {
			break
		}
		s.Release("a")
		if class == Warm {
			warmAt = append(warmAt, pos)
		}
		pos++
	}
	// Warm is never starved: all 5 warm jobs dispatch before the 1000
	// interactive ones drain.
	if len(warmAt) != 5 {
		t.Fatalf("drained %d warm jobs, want 5", len(warmAt))
	}
	if last := warmAt[4]; last >= pos-1 && pos > 1005 {
		t.Fatalf("last warm dispatch at %d of %d: starved to the end", last, pos)
	}
	// Priority holds in steady state: interactive (×100) outruns warm (×1)
	// by ~100 dispatches per warm slot.
	gap := warmAt[2] - warmAt[1]
	if gap < 80 || gap > 120 {
		t.Fatalf("steady-state warm gap %d interactive jobs, want ~100", gap)
	}
}

func TestQueueBoundAndDropAccounting(t *testing.T) {
	s := NewScheduler([]Tenant{{Name: "a", Key: "ka"}}, 2)
	fill(t, s, "a", Batch, 2)
	if !s.Full() {
		t.Fatal("queue should be full at depth")
	}
	if err := s.Enqueue("a", Batch, "x"); err != ErrQueueFull {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	st := s.TenantStats()
	var a *Stats
	for i := range st {
		if st[i].Name == "a" {
			a = &st[i]
		}
	}
	if a == nil || a.Dropped != 1 || a.Queued != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestInFlightCap(t *testing.T) {
	s := NewScheduler([]Tenant{
		{Name: "capped", Key: "kc", MaxInFlight: 1},
		{Name: "free", Key: "kf"},
	}, 16)
	fill(t, s, "capped", Batch, 3)
	fill(t, s, "free", Batch, 2)
	_, n1, _, ok := s.Next()
	if !ok {
		t.Fatal("no first dispatch")
	}
	// Whichever went first, capped can hold at most one slot; draining
	// without releases must eventually stall with capped work left.
	dispatched := []string{n1}
	for {
		_, n, _, ok := s.Next()
		if !ok {
			break
		}
		dispatched = append(dispatched, n)
	}
	cappedRunning := 0
	for _, n := range dispatched {
		if n == "capped" {
			cappedRunning++
		}
	}
	if cappedRunning != 1 {
		t.Fatalf("capped tenant has %d in flight, cap is 1", cappedRunning)
	}
	if s.QueuedLen() != 2 {
		t.Fatalf("queued=%d, want 2 capped jobs waiting", s.QueuedLen())
	}
	// Releasing unblocks exactly one more capped dispatch.
	s.Release("capped")
	_, n, _, ok := s.Next()
	if !ok || n != "capped" {
		t.Fatalf("after release got %q ok=%v, want capped", n, ok)
	}
}

func TestRemoveCancelsQueuedJob(t *testing.T) {
	s := NewScheduler(nil, 8)
	v1, v2 := "j1", "j2"
	if err := s.Enqueue(LocalName, Batch, v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(LocalName, Batch, v2); err != nil {
		t.Fatal(err)
	}
	if !s.Remove(LocalName, Batch, v1) {
		t.Fatal("Remove did not find queued job")
	}
	if s.Remove(LocalName, Batch, v1) {
		t.Fatal("Remove found an already-removed job")
	}
	got, _, _, ok := s.Next()
	if !ok || got != v2 {
		t.Fatalf("got %v, want j2", got)
	}
	if _, _, _, ok := s.Next(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestIdleFlowBanksNoCredit(t *testing.T) {
	s := NewScheduler([]Tenant{
		{Name: "a", Key: "ka"},
		{Name: "b", Key: "kb"},
	}, 1000)
	// a runs alone for a while, advancing the virtual clock.
	fill(t, s, "a", Batch, 100)
	for i := 0; i < 100; i++ {
		_, n, _, _ := s.Next()
		s.Release(n)
	}
	// b arrives late; it must share 50/50 from here on, not get 100
	// catch-up dispatches.
	fill(t, s, "a", Batch, 20)
	fill(t, s, "b", Batch, 20)
	first10 := drain(s)[:10]
	bCount := 0
	for _, n := range first10 {
		if n == "b" {
			bCount++
		}
	}
	if bCount < 4 || bCount > 6 {
		t.Fatalf("late-arriving tenant got %d of first 10 slots, want ~5", bCount)
	}
}

func TestLocalOnlySchedulerIsFIFO(t *testing.T) {
	s := NewScheduler(nil, 16)
	if s.Tenanted() {
		t.Fatal("scheduler with no tenants reports Tenanted")
	}
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(LocalName, Batch, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, name, _, ok := s.Next()
		if !ok || v.(int) != i || name != LocalName {
			t.Fatalf("dispatch %d: got %v from %q", i, v, name)
		}
		s.Release(name)
	}
}

func TestTenantForKey(t *testing.T) {
	s := NewScheduler([]Tenant{{Name: "a", Key: "secret"}}, 4)
	if n, ok := s.TenantForKey("secret"); !ok || n != "a" {
		t.Fatalf("got %q, %v", n, ok)
	}
	if _, ok := s.TenantForKey("wrong"); ok {
		t.Fatal("unknown key resolved")
	}
	if !s.Tenanted() {
		t.Fatal("Tenanted false with a configured tenant")
	}
}

func TestTenantStatsSortedAndLocalHidden(t *testing.T) {
	s := NewScheduler([]Tenant{
		{Name: "zeta", Key: "kz"},
		{Name: "alpha", Key: "kA"},
	}, 8)
	st := s.TenantStats()
	if len(st) != 2 || st[0].Name != "alpha" || st[1].Name != "zeta" {
		t.Fatalf("stats not sorted or local leaked: %+v", st)
	}
	// Local appears once it sees traffic.
	if err := s.Enqueue(LocalName, Batch, "x"); err != nil {
		t.Fatal(err)
	}
	st = s.TenantStats()
	if len(st) != 3 || st[1].Name != LocalName {
		t.Fatalf("local tenant missing after traffic: %+v", st)
	}
}

func TestNewSchedulerPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewScheduler(nil, 0) },
		func() { NewScheduler([]Tenant{{Name: "a"}}, 4) }, // empty key
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad scheduler config did not panic")
				}
			}()
			f()
		}()
	}
}

// TestBypassCountsTowardCap: slots claimed outside the queue (the
// store-admission bypass path) share the in-flight accounting with
// dispatched jobs — a bypass at the cap is refused with ErrQueueFull and
// spends no token, a bypassed job blocks Next for that tenant, shows up in
// the stats, and is freed by the same Release the worker path uses; an
// empty bucket refuses with a *QuotaError.
func TestBypassCountsTowardCap(t *testing.T) {
	s := NewScheduler([]Tenant{{Name: "capped", Key: "kc", MaxInFlight: 1, Rate: 1, Burst: 2}}, 8)
	now := time.Unix(1000, 0)
	if err := s.Bypass("capped", now); err != nil {
		t.Fatalf("fresh tenant bypass: %v", err)
	}
	if err := s.Bypass("capped", now); err != ErrQueueFull {
		t.Fatalf("bypass at the cap = %v, want ErrQueueFull", err)
	}
	// A queued job cannot dispatch while the bypass job holds the slot.
	fill(t, s, "capped", Batch, 1)
	if _, _, _, ok := s.Next(); ok {
		t.Fatal("Next dispatched past the in-flight cap")
	}
	for _, st := range s.TenantStats() {
		if st.Name == "capped" && (st.Running != 1 || st.Dispatched != 1 || st.Admitted != 1) {
			t.Fatalf("stats running=%d dispatched=%d admitted=%d, want 1/1/1 (the refused bypass spent no token)",
				st.Running, st.Dispatched, st.Admitted)
		}
	}
	s.Release("capped")
	if _, n, _, ok := s.Next(); !ok || n != "capped" {
		t.Fatalf("after release got %q ok=%v, want capped", n, ok)
	}
	s.Release("capped")
	// The bucket still holds the token the refused bypass kept...
	if err := s.Bypass("capped", now); err != nil {
		t.Fatalf("bypass with a token left: %v", err)
	}
	s.Release("capped")
	// ...and is now empty.
	var qe *QuotaError
	if err := s.Bypass("capped", now); !errors.As(err, &qe) {
		t.Fatalf("bypass on an empty bucket = %v, want *QuotaError", err)
	}
	// Uncapped tenants always have a slot; unknown names never do.
	if err := s.Bypass(LocalName, now); err != nil {
		t.Fatalf("uncapped local tenant bypass: %v", err)
	}
	if err := s.Bypass("ghost", now); err == nil {
		t.Fatal("bypass admitted an unknown tenant")
	}
}
