package stats

// Counters is the counter block both timing cores keep: everything the
// paper's evaluation reports. A core resets it at the end of a warm-up
// window (ResetStats), so a measurement covers exactly the SMARTS-style
// measurement interval. The in-order core fills the subset it has — cycles,
// commits, MLP and ILP — and counts every cycle as a commit cycle; the
// out-of-order fields stay zero there.
type Counters struct {
	Cycles    uint64
	Committed uint64

	// Cycle breakdown (Fig. 9a). Every simulated cycle lands in exactly
	// one bucket:
	//   CommitCycles   — at least one instruction retired;
	//   MemStallCycles — no retirement and the ROB head is an incomplete
	//                    memory operation;
	//   BackendStalls  — no retirement, ROB non-empty, head not an
	//                    incomplete memory op (includes cycles where a
	//                    completed head is waiting for a deferred NDA
	//                    broadcast);
	//   FrontendStalls — no retirement and the ROB is empty (fetch refill
	//                    and squash recovery).
	CommitCycles   uint64
	MemStallCycles uint64
	BackendStalls  uint64
	FrontendStalls uint64

	// MLP (Fig. 9b): average outstanding off-chip misses over cycles with
	// at least one outstanding, after Chou et al.
	MLPSum    uint64
	MLPCycles uint64

	// ILP (Fig. 9c): average instructions entering execution per cycle
	// over cycles with at least one issue.
	ILPSum    uint64
	ILPCycles uint64

	// Dispatch→issue latency (Fig. 9d), accumulated at commit.
	DispatchToIssueSum   uint64
	DispatchToIssueCount uint64

	// Broadcast accounting: how many broadcasts were deferred past
	// completion by NDA, and the total deferral (completion → broadcast).
	DeferredBroadcasts uint64
	DeferralCycles     uint64

	// Speculation accounting.
	BranchesResolved uint64
	Mispredicts      uint64
	Squashes         uint64
	SquashedInsts    uint64
	OrderViolations  uint64
	LoadForwards     uint64
	LoadReplays      uint64
	BypassedLoads    uint64 // loads that executed past ≥1 unresolved store address
	Faults           uint64

	// InvisiSpec accounting.
	InvisibleLoads  uint64 // loads whose fill was hidden at access time
	Exposures       uint64 // hidden fills later installed at the safe point
	ValidationStall uint64 // commit cycles spent validating invisible loads
}

// CPI returns cycles per committed instruction.
func (s *Counters) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// IPC returns committed instructions per cycle.
func (s *Counters) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MLP returns the average outstanding off-chip misses over cycles with at
// least one outstanding (1.0 lower bound when any misses occurred).
func (s *Counters) MLP() float64 {
	if s.MLPCycles == 0 {
		return 0
	}
	return float64(s.MLPSum) / float64(s.MLPCycles)
}

// ILP returns the average issue burst width over cycles that issued.
func (s *Counters) ILP() float64 {
	if s.ILPCycles == 0 {
		return 0
	}
	return float64(s.ILPSum) / float64(s.ILPCycles)
}

// DispatchToIssue returns the mean dispatch→issue latency in cycles.
func (s *Counters) DispatchToIssue() float64 {
	if s.DispatchToIssueCount == 0 {
		return 0
	}
	return float64(s.DispatchToIssueSum) / float64(s.DispatchToIssueCount)
}

// MispredictRate returns mispredicts per resolved branch.
func (s *Counters) MispredictRate() float64 {
	if s.BranchesResolved == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.BranchesResolved)
}
