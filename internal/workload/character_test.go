package workload

import (
	"testing"

	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/stats"
)

// These tests validate the proxy-design claims in DESIGN.md: each kernel
// family must actually exhibit the micro-architectural character its SPEC
// counterpart is chosen for. If a generator drifts (e.g. a wrap mask bug
// shrinks a working set), these catch it before it silently skews the
// Fig. 7 reproduction.

// profile runs a workload briefly on the baseline OoO core and returns its
// stats.
func profile(t *testing.T, name string) *stats.Counters {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := ooo.NewFromProgram(s.Build(1<<40), core.Baseline(), ooo.DefaultParams())
	if err := c.RunInsts(8_000, 50_000_000); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if err := c.RunInsts(20_000, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

func TestStreamHasHighMLP(t *testing.T) {
	s := profile(t, "stream")
	if s.MLP() < 3 {
		t.Errorf("stream MLP = %.2f, want >= 3 (independent misses must overlap)", s.MLP())
	}
}

func TestPointerChaseHasSerialMisses(t *testing.T) {
	s := profile(t, "pchase-mem")
	if s.MLP() > 1.5 {
		t.Errorf("pointer-chase MLP = %.2f, want ~1 (dependent misses cannot overlap)", s.MLP())
	}
	if s.CPI() < 10 {
		t.Errorf("DRAM-resident chase CPI = %.2f, implausibly fast", s.CPI())
	}
}

func TestChaseL2FasterThanDRAM(t *testing.T) {
	l2 := profile(t, "pchase-l2")
	mem := profile(t, "pchase-mem")
	if l2.CPI() >= mem.CPI() {
		t.Errorf("L2-resident chase (%.2f CPI) must beat DRAM-resident (%.2f)", l2.CPI(), mem.CPI())
	}
}

func TestBranchyMispredicts(t *testing.T) {
	s := profile(t, "branchy")
	if s.MispredictRate() < 0.15 {
		t.Errorf("branchy mispredict rate = %.2f, want >= 0.15 (random directions)", s.MispredictRate())
	}
	if s.Squashes == 0 {
		t.Error("branchy must squash")
	}
}

func TestComputeHasHighIPC(t *testing.T) {
	s := profile(t, "compute")
	if s.IPC() < 1.2 {
		t.Errorf("compute IPC = %.2f, want >= 1.2 (no memory stalls)", s.IPC())
	}
	if s.MLPCycles > s.Cycles/20 {
		t.Error("compute must be nearly free of off-chip misses")
	}
}

func TestCallsResolveViaRAS(t *testing.T) {
	// Call/return-heavy code must keep its (RAS-predicted) control flow
	// nearly mispredict-free.
	s := profile(t, "calls")
	if s.MispredictRate() > 0.05 {
		t.Errorf("calls mispredict rate = %.2f, want ~0 (RAS-predicted)", s.MispredictRate())
	}
}

func TestGatherKeepsMLPDespiteMisses(t *testing.T) {
	s := profile(t, "gather")
	if s.MLP() < 2 {
		t.Errorf("gather MLP = %.2f, want >= 2 (independent random misses)", s.MLP())
	}
}

func TestSPECProxiesSpanRegimes(t *testing.T) {
	// The suite must contain clearly memory-bound, clearly compute-bound,
	// and clearly branchy members — otherwise Fig. 7's spread collapses.
	mcf := profile(t, "mcf")
	exch := profile(t, "exchange2")
	deep := profile(t, "deepsjeng")
	if mcf.CPI() < 3*exch.CPI() {
		t.Errorf("mcf (%.2f) must be far slower than exchange2 (%.2f)", mcf.CPI(), exch.CPI())
	}
	if deep.MispredictRate() < 0.2 {
		t.Errorf("deepsjeng mispredict rate = %.2f, want >= 0.2", deep.MispredictRate())
	}
	if exch.MispredictRate() > 0.02 {
		t.Errorf("exchange2 mispredict rate = %.2f, want ~0", exch.MispredictRate())
	}
}

func TestScatterCreatesBypasses(t *testing.T) {
	// Proxies with scatterIndirect must actually exercise speculative
	// store bypass — the behaviour Bypass Restriction prices.
	s := profile(t, "gcc")
	if s.BypassedLoads == 0 {
		t.Error("gcc proxy must bypass unresolved stores")
	}
}

func TestStoreHeavyStreamsCommitStores(t *testing.T) {
	s, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	c := ooo.NewFromProgram(s.Build(50), core.Baseline(), ooo.DefaultParams())
	if err := c.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	// The stream's stores must have landed in memory.
	found := false
	for off := uint64(0); off < 4096 && !found; off += 8 {
		if c.Memory().Read(uint64(streamBase)+off, 8) != 0 {
			found = true
		}
	}
	if !found {
		t.Error("lbm's streaming stores never reached memory")
	}
}

func TestLoadRestrictionPreservesMLP(t *testing.T) {
	// Paper §6.3: "NDA does not typically restrict the issue time of
	// loads, only when they may wake dependents" — so streaming MLP must
	// survive even the restricted-loads policy.
	s, err := ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	mlp := func(pol core.Policy) float64 {
		c := ooo.NewFromProgram(s.Build(1<<40), pol, ooo.DefaultParams())
		if err := c.RunInsts(8_000, 50_000_000); err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		if err := c.RunInsts(20_000, 50_000_000); err != nil {
			t.Fatal(err)
		}
		return c.Stats().MLP()
	}
	base := mlp(core.Baseline())
	restricted := mlp(core.LoadRestrict())
	if restricted < 0.6*base {
		t.Errorf("load restriction collapsed MLP: %.2f vs baseline %.2f", restricted, base)
	}
	if restricted < 2 {
		t.Errorf("restricted-loads stream MLP = %.2f, must stay well above the in-order bound", restricted)
	}
}
