package cache

// HierarchyParams configures the three-level hierarchy. The defaults
// (DefaultHierarchyParams) reproduce Table 3 of the paper at 2.0 GHz.
type HierarchyParams struct {
	L1I, L1D, L2 Params
	DRAMLatency  int // additional round-trip cycles beyond the L2 lookup on an L2 miss

	// NextLinePrefetch enables a simple next-line prefetcher on the
	// instruction path: each fetch pulls the following line into L1I/L2 in
	// the background, so straight-line code does not pay a cold miss per
	// line (every modern front end prefetches at least this much).
	NextLinePrefetch bool
}

// DefaultHierarchyParams returns the Table 3 configuration: 32kB 8-way
// L1I/L1D with 4-cycle round trips, a 2MB 16-way L2 with a 40-cycle round
// trip, and 50ns (100 cycles at 2GHz) DRAM response latency.
func DefaultHierarchyParams() HierarchyParams {
	return HierarchyParams{
		L1I:         Params{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4},
		L1D:         Params{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 4},
		L2:          Params{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Ways: 16, HitLatency: 40},
		DRAMLatency: 100,

		NextLinePrefetch: true,
	}
}

// Hierarchy is the full cache system shared by a core: split L1s over a
// unified L2 over DRAM.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	p            HierarchyParams
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(p HierarchyParams) *Hierarchy {
	return &Hierarchy{L1I: New(p.L1I), L1D: New(p.L1D), L2: New(p.L2), p: p}
}

// Result describes one access: its total round-trip latency and the level
// that supplied the data.
type Result struct {
	Latency int
	Level   Level
}

// OffChip reports whether the access went all the way to DRAM. The paper's
// MLP metric counts outstanding off-chip misses.
func (r Result) OffChip() bool { return r.Level == LevelDRAM }

func (h *Hierarchy) access(l1 *Cache, addr uint64, install bool) Result {
	if l1.Lookup(addr) {
		return Result{Latency: l1.Params().HitLatency, Level: LevelL1}
	}
	if h.L2.Lookup(addr) {
		if install {
			l1.Install(addr)
		}
		return Result{Latency: h.L2.Params().HitLatency, Level: LevelL2}
	}
	if install {
		h.L2.Install(addr)
		l1.Install(addr)
	}
	return Result{Latency: h.L2.Params().HitLatency + h.p.DRAMLatency, Level: LevelDRAM}
}

// Data performs a normal data access: the line is installed into L1D and L2
// on a miss (write-allocate; loads and stores are treated alike for timing).
func (h *Hierarchy) Data(addr uint64) Result { return h.access(h.L1D, addr, true) }

// DataNoInstall computes the latency a data access would take but leaves the
// cache contents untouched on a miss. This models InvisiSpec's speculative
// buffer: the load gets its value but leaves no trace.
func (h *Hierarchy) DataNoInstall(addr uint64) Result { return h.access(h.L1D, addr, false) }

// Inst performs an instruction-fetch access through L1I. With
// NextLinePrefetch enabled the following line is pulled in quietly (no
// latency, no stat counts) — the background prefetch of a real front end.
func (h *Hierarchy) Inst(addr uint64) Result {
	r := h.access(h.L1I, addr, true)
	if h.p.NextLinePrefetch {
		next := addr + uint64(h.L1I.LineBytes())
		if !h.L1I.Present(next) {
			h.L2.Install(next)
			h.L1I.Install(next)
		}
	}
	return r
}

// InstallData exposes a formerly invisible line to the hierarchy (InvisiSpec
// exposure at the safe point).
func (h *Hierarchy) InstallData(addr uint64) {
	h.L2.Install(addr)
	h.L1D.Install(addr)
}

// DataPresent reports whether addr is in L1D or L2, without side effects.
func (h *Hierarchy) DataPresent(addr uint64) bool {
	return h.L1D.Present(addr) || h.L2.Present(addr)
}

// Flush removes addr's line from every level (CLFLUSH semantics).
func (h *Hierarchy) Flush(addr uint64) {
	h.L1I.Flush(addr)
	h.L1D.Flush(addr)
	h.L2.Flush(addr)
}

// LineBytes returns the (common) line size of the hierarchy.
func (h *Hierarchy) LineBytes() int { return h.L1D.LineBytes() }

// Params returns the hierarchy configuration.
func (h *Hierarchy) Params() HierarchyParams { return h.p }

// ResetStats zeroes all per-level counters.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
}

// Reset returns every level to the state NewHierarchy builds, in O(1).
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}
