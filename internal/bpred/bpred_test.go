package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// train runs one predict/resolve round the way the core does: the counter is
// trained with the actual outcome, and on a misprediction the speculative
// history bit is repaired (the core does this during the squash).
func train(g *Gshare, pc uint64, outcome bool) (predicted bool) {
	pred, ck := g.Predict(pc)
	g.Update(pc, outcome, ck)
	if pred != outcome {
		g.Restore(ck, outcome)
	}
	return pred
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(10)
	pc := uint64(0x1000)
	for i := 0; i < 100; i++ {
		train(g, pc, true)
	}
	taken, _ := g.Predict(pc)
	if !taken {
		t.Error("gshare must learn an always-taken branch")
	}
}

func TestGshareLearnsAlternatingWithHistory(t *testing.T) {
	// A strictly alternating branch is predictable from one bit of global
	// history; train until warm, then expect correct predictions.
	g := NewGshare(12)
	pc := uint64(0x2000)
	outcome := false
	correct := 0
	for i := 0; i < 200; i++ {
		pred := train(g, pc, outcome)
		if i >= 100 && pred == outcome {
			correct++
		}
		outcome = !outcome
	}
	if correct < 95 {
		t.Errorf("alternating branch predicted correctly only %d/100 times", correct)
	}
}

func TestGshareCheckpointRestore(t *testing.T) {
	g := NewGshare(10)
	h0 := g.History()
	_, ck := g.Predict(0x1000)
	if ck != h0 {
		t.Error("checkpoint must capture pre-prediction history")
	}
	g.Predict(0x1004)
	g.Predict(0x1008)
	g.Restore(ck, true)
	if g.History() != (h0<<1)|1 {
		t.Errorf("Restore must re-apply the actual outcome: %b", g.History())
	}
	g.SetHistory(h0)
	if g.History() != h0 {
		t.Error("SetHistory must rewind exactly")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(64, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB must miss")
	}
	b.Update(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("lookup = %#x, %v", tgt, ok)
	}
	b.Update(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Error("update must replace the target")
	}
	if b.Lookups != 3 || b.Hits != 2 {
		t.Errorf("stats: lookups=%d hits=%d", b.Lookups, b.Hits)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	// 16 sets x 4 ways; PCs with identical set index conflict.
	b := NewBTB(64, 4)
	base := uint64(0x1000)
	stride := uint64(16 * 4) // one set stride in bytes (sets indexed by pc>>2)
	for i := uint64(0); i < 5; i++ {
		b.Update(base+i*stride, 0x100+i)
	}
	if _, ok := b.Peek(base); ok {
		t.Error("LRU entry must be evicted after overfilling the set")
	}
	for i := uint64(1); i < 5; i++ {
		if tgt, ok := b.Peek(base + i*stride); !ok || tgt != 0x100+i {
			t.Errorf("entry %d lost: %#x %v", i, tgt, ok)
		}
	}
}

func TestBTBPeekNoStats(t *testing.T) {
	b := NewBTB(64, 4)
	b.Update(0x1000, 0x2000)
	lookups := b.Lookups
	b.Peek(0x1000)
	if b.Lookups != lookups {
		t.Error("Peek must not count as a lookup")
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must underflow")
	}
	r.Push(0x100)
	r.Push(0x200)
	if a, ok := r.Pop(); !ok || a != 0x200 {
		t.Errorf("pop = %#x", a)
	}
	if a, ok := r.Pop(); !ok || a != 0x100 {
		t.Errorf("pop = %#x", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS must be empty again")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Errorf("pop = %d, want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Errorf("pop = %d, want 2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("entry 1 was overwritten; stack must be empty")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0xA)
	r.Push(0xB)
	snap := r.Snapshot()
	r.Pop()
	r.Push(0xC)
	r.Push(0xD)
	r.Restore(snap)
	if r.Depth() != 2 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if a, _ := r.Pop(); a != 0xB {
		t.Errorf("post-restore pop = %#x, want 0xB", a)
	}
}

// Snapshots share one backing array, so each must stay within its own
// stretch of it, and filling one must not allocate.
func TestRASSnapshotsAreDisjoint(t *testing.T) {
	r := NewRAS(4)
	snaps := r.Snapshots(3)
	for i := range snaps {
		r.Push(uint64(0x10 * (i + 1)))
		if n := testing.AllocsPerRun(10, func() { r.SnapshotInto(&snaps[i]) }); n != 0 {
			t.Errorf("SnapshotInto snapshot %d: %v allocs", i, n)
		}
	}
	for i, s := range snaps {
		r2 := NewRAS(4)
		r2.Restore(s)
		if r2.Depth() != i+1 {
			t.Fatalf("snapshot %d: depth %d, want %d", i, r2.Depth(), i+1)
		}
		if a, _ := r2.Pop(); a != uint64(0x10*(i+1)) {
			t.Errorf("snapshot %d: top %#x, want %#x", i, a, 0x10*(i+1))
		}
	}
}

func TestRASSnapshotProperty(t *testing.T) {
	f := func(ops []uint8, addrs []uint64) bool {
		r := NewRAS(16)
		for i, op := range ops {
			if op%2 == 0 && i < len(addrs) {
				r.Push(addrs[i])
			} else {
				r.Pop()
			}
		}
		snap := r.Snapshot()
		depth := r.Depth()
		// Arbitrary mutation...
		r.Push(0xFFFF)
		r.Pop()
		r.Pop()
		// ...must be fully undone by Restore.
		r.Restore(snap)
		if r.Depth() != depth {
			return false
		}
		r2 := NewRAS(16)
		r2.Restore(snap)
		for r.Depth() > 0 {
			a1, _ := r.Pop()
			a2, _ := r2.Pop()
			if a1 != a2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewBTB(48, 4) }, // 12 sets: not a power of two
		func() { NewRAS(0) },
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Error("constructor must panic on invalid sizing")
		}()
	}
}

// exercise drives every predictor structure through a seeded random mix of
// operations and returns every answer they gave, so two sets of structures
// can be compared for identical behaviour.
func exercise(g *Gshare, b *BTB, r *RAS, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for i := 0; i < 5000; i++ {
		pc := uint64(rng.Intn(1<<12)) &^ 3
		switch rng.Intn(5) {
		case 0:
			taken, ck := g.Predict(pc)
			out = append(out, b2u(taken), ck)
			g.Update(pc, rng.Intn(2) == 0, ck)
		case 1:
			tgt, ok := b.Lookup(pc)
			out = append(out, tgt, b2u(ok))
		case 2:
			b.Update(pc, pc^0xABC0)
		case 3:
			r.Push(pc)
		case 4:
			a, ok := r.Pop()
			out = append(out, a, b2u(ok))
		}
	}
	return append(out, g.History(), g.Lookups, b.Lookups, b.Hits, uint64(r.Depth()))
}

// Reset returns each structure to exactly its constructor's state: after
// dirtying and Reset, the same operations give the same answers and
// counters as on fresh structures.
func TestResetMatchesFresh(t *testing.T) {
	g, b, r := NewGshare(8), NewBTB(64, 4), NewRAS(4)
	exercise(g, b, r, 1)
	g.Reset()
	b.Reset()
	r.Reset()
	if g.Lookups != 0 || g.History() != 0 || b.Lookups != 0 || b.Hits != 0 || r.Depth() != 0 {
		t.Fatal("Reset left counters, history or depth behind")
	}
	if _, ok := b.Peek(0); ok {
		t.Fatal("BTB entry survived Reset")
	}
	got := exercise(g, b, r, 2)
	want := exercise(NewGshare(8), NewBTB(64, 4), NewRAS(4), 2)
	if len(got) != len(want) {
		t.Fatalf("%d answers vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("answer %d: reset %#x, fresh %#x", i, got[i], want[i])
		}
	}
	// The snapshot of a reset RAS equals a fresh one's, contents included.
	r.Reset()
	s, f := r.Snapshot(), NewRAS(4).Snapshot()
	if s.top != f.top || s.depth != f.depth || len(s.entries) != len(f.entries) {
		t.Fatalf("snapshot %+v vs fresh %+v", s, f)
	}
	for i := range s.entries {
		if s.entries[i] != f.entries[i] {
			t.Fatalf("reset RAS entry %d = %#x, want 0", i, s.entries[i])
		}
	}
}

// Gshare.Reset refills every counter weakly not-taken, for table sizes that
// are and are not reached by a single doubling step.
func TestGshareResetCounters(t *testing.T) {
	for _, bits := range []uint{0, 1, 5, 14} {
		g := NewGshare(bits)
		for i := range g.pht {
			g.pht[i] = 3
		}
		g.Reset()
		for i, v := range g.pht {
			if v != 1 {
				t.Fatalf("bits=%d: counter %d = %d after Reset, want 1", bits, i, v)
			}
		}
	}
}
