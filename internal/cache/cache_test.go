package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Params{Name: "test", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 4})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) {
		t.Error("empty cache must miss")
	}
	c.Install(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("installed line must hit")
	}
	if !c.Lookup(0x1030) {
		t.Error("same line, different offset must hit")
	}
	if c.Lookup(0x1040) {
		t.Error("next line must miss")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (set stride = 4 sets * 64B = 256B).
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Install(a)
	c.Install(b)
	c.Lookup(a) // refresh a; b becomes LRU
	if ev := c.Install(d); !ev {
		t.Error("installing into a full set must evict")
	}
	if !c.Present(a) {
		t.Error("recently used line must survive")
	}
	if c.Present(b) {
		t.Error("LRU line must be evicted")
	}
	if !c.Present(d) {
		t.Error("new line must be present")
	}
}

func TestInstallIdempotent(t *testing.T) {
	c := smallCache()
	c.Install(0x40)
	if ev := c.Install(0x40); ev {
		t.Error("re-installing a present line must not evict")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Install(0x80)
	if !c.Flush(0x80) {
		t.Error("flush of present line must report true")
	}
	if c.Present(0x80) {
		t.Error("flushed line must be gone")
	}
	if c.Flush(0x80) {
		t.Error("flush of absent line must report false")
	}
}

func TestPresentHasNoSideEffects(t *testing.T) {
	c := smallCache()
	c.Install(0x40)
	before := c.Stats()
	c.Present(0x40)
	c.Present(0x1234560)
	if c.Stats() != before {
		t.Error("Present must not touch counters")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := smallCache()
	c.Install(0x40)
	c.Install(0x80)
	c.InvalidateAll()
	if c.Present(0x40) || c.Present(0x80) {
		t.Error("InvalidateAll must empty the cache")
	}
}

func TestCapacityBound(t *testing.T) {
	c := smallCache() // 8 lines total
	f := func(seed int64) bool {
		c.InvalidateAll()
		r := rand.New(rand.NewSource(seed))
		addrs := make(map[uint64]bool)
		for i := 0; i < 100; i++ {
			a := uint64(r.Intn(1<<16)) &^ 63
			c.Install(a)
			addrs[a] = true
		}
		present := 0
		for a := range addrs {
			if c.Present(a) {
				present++
			}
		}
		return present <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBadParamsPanic(t *testing.T) {
	for _, p := range []Params{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 60, Ways: 2}, // line size not a power of two
		{SizeBytes: 768, LineBytes: 64, Ways: 2}, // set count not a power of two
		{SizeBytes: 500, LineBytes: 64, Ways: 2}, // not divisible
	} {
		func() {
			defer func() { recover() }()
			New(p)
			t.Errorf("params %+v must panic", p)
		}()
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats must have zero miss rate")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 || s.Accesses() != 4 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x10000)

	r := h.Data(addr)
	if r.Level != LevelDRAM || r.Latency != 140 {
		t.Errorf("cold access = %+v, want DRAM/140", r)
	}
	if !r.OffChip() {
		t.Error("DRAM access must be off-chip")
	}
	r = h.Data(addr)
	if r.Level != LevelL1 || r.Latency != 4 {
		t.Errorf("warm access = %+v, want L1/4", r)
	}

	// Evict from L1 only: a string of conflicting lines (same L1 set).
	h.L1D.Flush(addr)
	r = h.Data(addr)
	if r.Level != LevelL2 || r.Latency != 40 {
		t.Errorf("L1-flushed access = %+v, want L2/40", r)
	}
}

func TestHierarchyNoInstall(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x20000)
	r := h.DataNoInstall(addr)
	if r.Level != LevelDRAM {
		t.Errorf("cold no-install = %+v", r)
	}
	if h.DataPresent(addr) {
		t.Error("no-install access must leave the line absent")
	}
	r = h.DataNoInstall(addr)
	if r.Level != LevelDRAM {
		t.Error("repeated no-install access must still miss (no speculative reuse)")
	}
	h.InstallData(addr)
	if !h.DataPresent(addr) {
		t.Error("InstallData must expose the line")
	}
	if r := h.Data(addr); r.Level != LevelL1 {
		t.Errorf("exposed line = %+v, want L1 hit", r)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x30000)
	h.Data(addr)
	h.Inst(addr)
	h.Flush(addr)
	if h.DataPresent(addr) || h.L1I.Present(addr) {
		t.Error("Flush must remove the line from every level")
	}
}

func TestInstPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	addr := uint64(0x40000)
	if r := h.Inst(addr); r.Level != LevelDRAM {
		t.Errorf("cold fetch = %+v", r)
	}
	if r := h.Inst(addr); r.Level != LevelL1 || r.Latency != 4 {
		t.Errorf("warm fetch = %+v", r)
	}
	// I-fetch must not populate L1D.
	if h.L1D.Present(addr) {
		t.Error("instruction fetch must not fill L1D")
	}
	// But it shares L2.
	if !h.L2.Present(addr) {
		t.Error("instruction fetch must fill L2")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelDRAM.String() != "DRAM" {
		t.Error("level names")
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level name")
	}
}

// refCache is the valid-bit, slice-per-set cache the generation-stamped
// one replaced, kept as the oracle for victim order.
type refCache struct {
	sets  [][]refWay
	shift uint
	clock uint64
}

type refWay struct {
	valid bool
	tag   uint64
	stamp uint64
}

func newRef(p Params) *refCache {
	n := p.SizeBytes / (p.LineBytes * p.Ways)
	r := &refCache{sets: make([][]refWay, n), shift: uint(log2(p.LineBytes))}
	for i := range r.sets {
		r.sets[i] = make([]refWay, p.Ways)
	}
	return r
}

func (r *refCache) index(addr uint64) ([]refWay, uint64) {
	line := addr >> r.shift
	n := uint64(len(r.sets))
	return r.sets[line&(n-1)], line >> uint(log2(len(r.sets)))
}

func (r *refCache) lookup(addr uint64) bool {
	set, tag := r.index(addr)
	r.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].stamp = r.clock
			return true
		}
	}
	return false
}

func (r *refCache) install(addr uint64) bool {
	set, tag := r.index(addr)
	r.clock++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.stamp = r.clock
			return false
		}
		if !w.valid {
			if victim == -1 || set[victim].valid {
				victim = i
			}
			oldest = 0
		} else if w.stamp < oldest {
			victim, oldest = i, w.stamp
		}
	}
	ev := set[victim].valid
	set[victim] = refWay{valid: true, tag: tag, stamp: r.clock}
	return ev
}

func (r *refCache) flush(addr uint64) bool {
	set, tag := r.index(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (r *refCache) invalidateAll() {
	for _, set := range r.sets {
		clear(set)
	}
}

// TestMatchesValidBitReference drives the cache and the reference through
// the same random mix of lookups, installs, flushes, invalidations and
// resets over a small address range (so sets conflict constantly): every
// hit, eviction, flush result and presence answer must agree, which pins
// LRU victim order — invalid ways first, then least recently used.
func TestMatchesValidBitReference(t *testing.T) {
	p := Params{Name: "test", SizeBytes: 1024, LineBytes: 64, Ways: 4, HitLatency: 4}
	c, ref := New(p), newRef(p)
	r := rand.New(rand.NewSource(1))
	for op := 0; op < 200_000; op++ {
		addr := uint64(r.Intn(1<<12)) &^ 7
		switch k := r.Intn(100); {
		case k < 40:
			if got, want := c.Lookup(addr), ref.lookup(addr); got != want {
				t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", op, addr, got, want)
			}
		case k < 85:
			if got, want := c.Install(addr), ref.install(addr); got != want {
				t.Fatalf("op %d: Install(%#x) evicted = %v, reference %v", op, addr, got, want)
			}
		case k < 98:
			if got, want := c.Flush(addr), ref.flush(addr); got != want {
				t.Fatalf("op %d: Flush(%#x) = %v, reference %v", op, addr, got, want)
			}
		case k < 99:
			c.InvalidateAll()
			ref.invalidateAll()
		default:
			// Reset also rewinds the LRU clock; the reference's clock runs
			// on, which only shifts every stamp equally.
			c.Reset()
			ref.invalidateAll()
		}
		for a := uint64(0); a < 1<<12; a += 64 {
			if c.Present(a) != ref.lookupQuiet(a) {
				t.Fatalf("op %d: Present(%#x) = %v, reference disagrees", op, a, c.Present(a))
			}
		}
	}
}

func (r *refCache) lookupQuiet(addr uint64) bool {
	set, tag := r.index(addr)
	for _, w := range set {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// A flushed way is invalid, so the next install into its set refills it
// instead of evicting the LRU line.
func TestFlushedWayRefilledFirst(t *testing.T) {
	c := smallCache()
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Install(a)
	c.Install(b)
	c.Flush(b) // a is LRU, but b's way is now free
	if ev := c.Install(d); ev {
		t.Error("install into a set with a flushed way must not evict")
	}
	if !c.Present(a) || !c.Present(d) || c.Present(b) {
		t.Error("install must take the flushed way and keep the LRU line")
	}
}

// InvalidateAll keeps the counters; Reset zeroes them; after either the
// cache behaves like a fresh one, including its victim order.
func TestInvalidateAllAndReset(t *testing.T) {
	for _, name := range []string{"InvalidateAll", "Reset"} {
		c := smallCache()
		for a := uint64(0); a < 4096; a += 64 {
			c.Install(a)
			c.Lookup(a)
		}
		before := c.Stats()
		if name == "Reset" {
			c.Reset()
			if c.Stats() != (Stats{}) {
				t.Errorf("Reset kept stats %+v", c.Stats())
			}
		} else {
			c.InvalidateAll()
			if c.Stats() != before {
				t.Errorf("InvalidateAll changed stats %+v -> %+v", before, c.Stats())
			}
		}
		for a := uint64(0); a < 4096; a += 64 {
			if c.Present(a) {
				t.Fatalf("%s: line %#x survived", name, a)
			}
		}
		// Same LRU behaviour as a fresh cache.
		fresh := smallCache()
		for _, a := range []uint64{0x000, 0x100, 0x000, 0x200, 0x300, 0x100, 0x400} {
			if got, want := c.Install(a), fresh.Install(a); got != want {
				t.Errorf("%s: Install(%#x) evicted = %v, fresh %v", name, a, got, want)
			}
		}
		for a := uint64(0); a < 0x500; a += 0x100 {
			if c.Present(a) != fresh.Present(a) {
				t.Errorf("%s: Present(%#x) = %v, fresh %v", name, a, c.Present(a), fresh.Present(a))
			}
		}
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyParams())
	h.Data(0x1000)
	h.Inst(0x2000)
	h.Reset()
	if h.DataPresent(0x1000) || h.L1I.Present(0x2000) || h.L2.Present(0x2000) {
		t.Error("Reset must empty every level")
	}
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		if c.Stats() != (Stats{}) {
			t.Errorf("%s: Reset kept stats %+v", c.Params().Name, c.Stats())
		}
	}
	if r := h.Data(0x1000); r.Level != LevelDRAM {
		t.Errorf("access after Reset = %+v, want a DRAM miss", r)
	}
}
