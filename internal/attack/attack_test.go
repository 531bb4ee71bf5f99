package attack

import (
	"context"
	"testing"

	"nda/internal/core"
	"nda/internal/ooo"
)

// TestMatrixMatchesPaper runs every attack under every policy (plus the
// in-order core) and checks the leak verdicts against the paper's Table 2
// security columns, encoded in Expected. This is the headline security
// reproduction: 6 attacks x 10 configurations.
func TestMatrixMatchesPaper(t *testing.T) {
	cells, err := MatrixCtx(context.Background(), ooo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(All())*(len(core.All())+1) {
		t.Fatalf("matrix has %d cells", len(cells))
	}
	for _, c := range cells {
		if !c.Matches() {
			t.Errorf("%-18s under %-18s: leaked=%v, paper says %v (margin %.1f)",
				c.Attack, c.Policy, c.Outcome.Leaked, c.Expected, c.Outcome.Margin)
		}
	}
}

// TestFig4CacheSeries checks the Fig. 4 cache-channel shape on the insecure
// baseline: a ~140-cycle dip exactly at the secret byte.
func TestFig4CacheSeries(t *testing.T) {
	out, err := RunCtx(context.Background(), SpectreV1Cache, core.Baseline(), ooo.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked || out.BestGuess != SecretByte {
		t.Fatalf("baseline must leak the secret: %v", out)
	}
	if out.Margin < 100 {
		t.Errorf("cache-channel margin = %.1f, expected ~140 cycles", out.Margin)
	}
	for g, v := range out.Series {
		if g != SecretByte && v < out.Series[SecretByte]+50 {
			t.Errorf("guess %d (%.0f cycles) not separated from the secret (%.0f)",
				g, v, out.Series[SecretByte])
		}
	}
}

// TestFig4BTBSeries checks the BTB-channel shape: a dip on the order of the
// ~16-cycle mispredict penalty at the secret byte, and only there.
func TestFig4BTBSeries(t *testing.T) {
	out, err := RunCtx(context.Background(), SpectreV1BTB, core.Baseline(), ooo.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked || out.BestGuess != SecretByte {
		t.Fatalf("baseline must leak via the BTB: %v", out)
	}
	if out.Margin < 6 || out.Margin > 40 {
		t.Errorf("BTB margin = %.1f, expected on the order of the ~16-cycle penalty", out.Margin)
	}
}

// TestFig8FlatUnderNDA checks the Fig. 8 claim: under permissive
// propagation both covert channels go flat — the secret is
// indistinguishable from the other 255 candidates.
func TestFig8FlatUnderNDA(t *testing.T) {
	for _, kind := range []Kind{SpectreV1Cache, SpectreV1BTB} {
		out, err := RunCtx(context.Background(), kind, core.Permissive(), ooo.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if out.Leaked {
			t.Errorf("%s must be blocked by permissive propagation: %v", kind, out)
		}
		if out.Margin > 5 {
			t.Errorf("%s series not flat under NDA: margin %.1f", kind, out.Margin)
		}
	}
}

// TestMeltdownNeedsTheHardwareFlaw verifies the MeltdownVulnerable ablation:
// with the implementation flaw fixed (faulting loads forward zero), the
// attack fails even on the insecure baseline.
func TestMeltdownNeedsTheHardwareFlaw(t *testing.T) {
	p := ooo.DefaultParams()
	p.MeltdownVulnerable = false
	for _, kind := range []Kind{Meltdown, LazyFP} {
		out, err := RunCtx(context.Background(), kind, core.Baseline(), p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Leaked {
			t.Errorf("%s must fail on fixed hardware: %v", kind, out)
		}
	}
}

// TestBTBChannelNeedsSpeculativeUpdates verifies the design-decision
// ablation from DESIGN.md: without speculative BTB updates the BTB covert
// channel disappears (at the cost of extra mispredicts).
func TestBTBChannelNeedsSpeculativeUpdates(t *testing.T) {
	p := ooo.DefaultParams()
	p.SpeculativeBTBUpdate = false
	out, err := RunCtx(context.Background(), SpectreV1BTB, core.Baseline(), p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Leaked {
		t.Errorf("BTB channel must vanish without speculative updates: %v", out)
	}
}

// TestSpectreStillLeaksWithoutBTBSpeculation: the cache channel does not
// depend on the BTB update policy.
func TestSpectreStillLeaksWithoutBTBSpeculation(t *testing.T) {
	p := ooo.DefaultParams()
	p.SpeculativeBTBUpdate = false
	out, err := RunCtx(context.Background(), SpectreV1Cache, core.Baseline(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked {
		t.Errorf("cache channel must be independent of BTB update policy: %v", out)
	}
}

func TestKindMetadata(t *testing.T) {
	if len(All()) != 9 {
		t.Fatalf("expected 9 attacks, got %d", len(All()))
	}
	for _, k := range All() {
		if k.Class() != "control-steering" && k.Class() != "chosen-code" {
			t.Errorf("%s class = %q", k, k.Class())
		}
	}
	if Meltdown.Class() != "chosen-code" || SpectreV1Cache.Class() != "control-steering" {
		t.Error("taxonomy classes wrong")
	}
	if SpectreV1BTB.Channel() != "btb" || SSB.Channel() != "d-cache" {
		t.Error("channels wrong")
	}
}

func TestRunUnknownKind(t *testing.T) {
	if _, err := RunCtx(context.Background(), Kind("nope"), core.Baseline(), ooo.DefaultParams()); err == nil {
		t.Error("unknown attack must error")
	}
}

func TestOutcomeString(t *testing.T) {
	out, err := RunCtx(context.Background(), GPRSteering, core.Strict(), ooo.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if s := out.String(); s == "" || out.Leaked {
		t.Errorf("outcome: %q leaked=%v", s, out.Leaked)
	}
}

// TestListing4SpecOffDefense verifies §8: the SPECOFF window closes the
// GPR-steering attack even on the insecure baseline and under permissive
// propagation (which on its own cannot protect GPR-resident secrets).
func TestListing4SpecOffDefense(t *testing.T) {
	for _, pol := range []core.Policy{core.Baseline(), core.Permissive()} {
		out, err := RunCtx(context.Background(), GPRSteeringSpecOff, pol, ooo.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if out.Leaked {
			t.Errorf("SPECOFF window must block GPR steering under %s: %v", pol.Name, out)
		}
	}
	// Sanity: the unhardened victim does leak under permissive.
	out, err := RunCtx(context.Background(), GPRSteering, core.Permissive(), ooo.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Leaked {
		t.Error("unhardened GPR steering must leak under permissive propagation")
	}
}
