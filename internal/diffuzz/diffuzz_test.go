package diffuzz

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/progen"
)

// fuzzSeedCount is the tier-1 sweep size; -short trims it for quick edits.
func fuzzSeedCount(t *testing.T) int {
	if testing.Short() {
		return 250
	}
	return 2500
}

// TestDifferentialSoundness is the tentpole cross-validation: over the full
// sweep, no program the analyzer certifies SAFE under any policy may show a
// secret-dependent channel trace, no program may be architecturally
// secret-dependent, and the pipeline sanitizer must stay silent. The
// efficacy checks below it make the sweep falsifiable: every gadget kind
// must both appear and actually leak dynamically on the insecure baseline,
// so a generator regression cannot hollow out the soundness claim.
func TestDifferentialSoundness(t *testing.T) {
	s := Fuzz(Seeds(1, fuzzSeedCount(t)), 0)
	if s.Failed > 0 {
		t.Fatalf("%d/%d programs failed:\n%s", s.Failed, s.Programs, s)
	}
	for _, c := range s.Policies {
		if c.Unsound != 0 {
			t.Errorf("%s: %d soundness violations", c.Policy, c.Unsound)
		}
	}

	for _, k := range progen.GadgetKinds {
		if s.KindTotal[k] == 0 {
			t.Errorf("gadget kind %s never generated", k)
		} else if s.KindLeakOoO[k] == 0 {
			t.Errorf("gadget kind %s: %d programs, none leak under OoO — generator lost its teeth",
				k, s.KindTotal[k])
		}
	}
	for _, k := range progen.SafeKinds {
		if s.KindTotal[k] == 0 {
			t.Errorf("safe kind %s never generated", k)
		}
	}

	// The sweep must exercise both sides of every verdict: programs the
	// analyzer certifies safe AND programs it flags, under the extreme
	// policies at least.
	for _, c := range s.Policies {
		switch c.Policy {
		case "OoO":
			if c.StaticSafe == 0 || c.TruePositive == 0 {
				t.Errorf("OoO census degenerate: %+v", c)
			}
		case "FullProtection", "RestrictedLoads":
			// Everything the generator emits is load-carried, so the
			// load-restriction policies must block all of it.
			if c.DynamicLeak != 0 {
				t.Errorf("%s: %d dynamic leaks, want 0", c.Policy, c.DynamicLeak)
			}
		case "InvisiSpec-Future":
			// The d-cache is invisible until retirement but the BTB is
			// not: steering-BTB programs must still get through.
			if c.DynamicLeak == 0 {
				t.Errorf("InvisiSpec-Future: no dynamic leaks; BTB channel lost")
			}
		}
	}
}

// A single-fragment chosen-memory program is the historical blind spot:
// the secret is laundered through a store-to-load pair outside any branch
// guard, so only the memory taint cell connects source to transmitter.
// Pin that at least one such program exists in the sweep range and that
// the analyzer flags it while the dynamic run confirms the leak.
func TestChosenMemoryBlindSpotCovered(t *testing.T) {
	found := false
	for seed := int64(1); seed < 3000 && !found; seed++ {
		p, err := progen.Gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Frags) != 1 || p.Frags[0] != progen.FragChosenMemory {
			continue
		}
		found = true
		r := RunSeed(seed)
		if r.Failure != "" {
			t.Fatalf("seed %d: %s", seed, r.Failure)
		}
		pr := r.PerPolicy["OoO"]
		if pr.StaticSafe {
			t.Errorf("seed %d: chosen-memory program certified safe under OoO — memory taint lost", seed)
		}
		if !pr.DynamicLeak {
			t.Errorf("seed %d: chosen-memory program does not leak dynamically under OoO", seed)
		}
	}
	if !found {
		t.Skip("no single-fragment chosen-memory program in range")
	}
}

// Aggregation must be bit-identical for any worker count (the par contract).
func TestFuzzWorkerCountInvariant(t *testing.T) {
	seeds := Seeds(100, 40)
	a := Fuzz(seeds, 1)
	b := Fuzz(seeds, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries differ across worker counts:\n1: %s\n4: %s", a, b)
	}
}

// freshTiming is the timing path before cores and memory images were
// reused: a new core, with p's data loaded into a new memory, sec planted by
// hand and the MSR set through Resume, for every run.
func freshTiming(p *progen.Program, pol core.Policy, shadows []core.Rules, sec secrets, evs []ooo.ChannelEvent) timingRun {
	c := ooo.NewFromProgram(p.Prog, pol, timingParams())
	plant(c.Memory(), sec.fill)
	var msr [isa.NumMSR]uint64
	msr[isa.MSRSecretKey] = sec.msr
	c.Resume([isa.NumGPR]uint64{}, msr, p.Prog.Entry)
	return new(timingCore).timing(c, shadows, evs)
}

// startSecrets names the secret vector a start holds, by its MSR value.
func startSecrets(start *checkpoint.Checkpoint) secrets {
	for _, sec := range [2]secrets{secretsA, secretsB} {
		if start.MSR[isa.MSRSecretKey] == sec.msr {
			return sec
		}
	}
	panic(fmt.Sprintf("start holds no known secret vector: MSR %#x", start.MSR[isa.MSRSecretKey]))
}

// freshRun is freshTiming as a timingFunc: it reads only which secret
// vector start holds.
func freshRun(p *progen.Program, start *checkpoint.Checkpoint, pol core.Policy, shadows []core.Rules, evs []ooo.ChannelEvent) timingRun {
	return freshTiming(p, pol, shadows, startSecrets(start), evs)
}

// The reused path must be indistinguishable from a fresh core and a fresh
// memory per run: every timing run's channel trace, sanitizer count and
// error, each seed's Result, and the folded Summary. Like one Fuzz worker,
// the reused side carries a single timingCore, its core and its run image,
// across every seed; the fresh side starts each seed from a new one.
func TestReusedCoreMatchesFresh(t *testing.T) {
	seeds := Seeds(500, 60)
	if testing.Short() {
		seeds = seeds[:15]
	}
	reused := make([]*Result, len(seeds))
	fresh := make([]*Result, len(seeds))
	runs := 0
	tm := new(timingCore)
	for i, seed := range seeds {
		check := func(p *progen.Program, start *checkpoint.Checkpoint, pol core.Policy, shadows []core.Rules, evs []ooo.ChannelEvent) timingRun {
			r := tm.run(p, start, pol, shadows, evs)
			got, gotSan, gotErr := r.trace, r.san, r.err
			w := freshRun(p, start, pol, shadows, nil)
			want, wantSan, wantErr := w.trace, w.san, w.err
			secret := startSecrets(start).fill
			runs++
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotSan != wantSan || !slices.Equal(got, want) {
				t.Errorf("seed %d under %s, secret %#x: reused core gave %d events, %d violations, err %v; fresh gave %d, %d, %v (%s)",
					seed, pol.Name, secret, len(got), gotSan, gotErr, len(want), wantSan, wantErr, traceDiff(got, want))
			}
			return r
		}
		reused[i] = tm.runSeed(seed, check)
		fresh[i] = new(timingCore).runSeed(seed, freshRun)
		if !reflect.DeepEqual(reused[i], fresh[i]) {
			t.Errorf("seed %d: result %+v, fresh cores %+v", seed, reused[i], fresh[i])
		}
	}
	if runs == 0 {
		t.Fatal("no timing runs compared")
	}
	if a, b := Summarize(reused), Summarize(fresh); !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries differ:\nreused: %s\nfresh:  %s", a, b)
	}
	t.Logf("%d timing runs over %d seeds matched", runs, len(seeds))
}
