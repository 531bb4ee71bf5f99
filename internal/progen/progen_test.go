package progen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Same seed, same program — the harness and CI replay failures by seed.
func TestGenDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, err := Gen(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Gen(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Source != b.Source {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if a.Name != b.Name || a.Faulting != b.Faulting || a.UsesMSR != b.UsesMSR {
			t.Fatalf("seed %d: metadata differs across generations", seed)
		}
	}
}

// Every fragment kind must appear within a modest seed range, every program
// must assemble, and the generator disciplines must hold: at most one
// faulting fragment, handler install iff faulting, MSR flag iff chosen-msr.
func TestGenCoverageAndDisciplines(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(0); seed < 400; seed++ {
		p, err := Gen(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Frags) < 1 || len(p.Frags) > 4 {
			t.Fatalf("seed %d: %d fragments", seed, len(p.Frags))
		}
		faults, msr := 0, false
		for _, k := range p.Frags {
			kinds[k]++
			if faulting(k) {
				faults++
			}
			if k == FragChosenMSR {
				msr = true
			}
		}
		if faults > 1 {
			t.Errorf("seed %d: %d faulting fragments, want <= 1 (%v)", seed, faults, p.Frags)
		}
		if (faults > 0) != p.Faulting {
			t.Errorf("seed %d: Faulting=%v but %d faulting fragments", seed, p.Faulting, faults)
		}
		if msr != p.UsesMSR {
			t.Errorf("seed %d: UsesMSR=%v but chosen-msr present=%v", seed, p.UsesMSR, msr)
		}
		if p.Faulting != strings.Contains(p.Source, "wrmsr 0x0") {
			t.Errorf("seed %d: handler install does not match Faulting=%v", seed, p.Faulting)
		}
	}
	for _, k := range append(append([]string{}, GadgetKinds...), SafeKinds...) {
		if kinds[k] == 0 {
			t.Errorf("fragment kind %s never generated in 400 seeds", k)
		}
	}
}

// The kernel secret region must be a real kernel-protected data segment:
// both the architectural fault and the analyzer's chosen-code detection
// depend on it.
func TestKernelSegment(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p, err := Gen(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		found := false
		for _, seg := range p.Prog.Data {
			if seg.Kernel && seg.Addr == KSecretBase && len(seg.Bytes) == SecretBytes {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: no %d-byte kernel segment at %#x", seed, SecretBytes, uint64(KSecretBase))
		}
	}
}

// TestGenWithMatchesGen holds the programs of seeds 0–19,999, generated
// the way a fuzz worker does (one source, reseeded per program by
// GenWith), to a digest of their names, sources, flags and fragments
// recorded with Gen before GenWith existed.
func TestGenWithMatchesGen(t *testing.T) {
	const want = "4f7305cacb90ad1def5beb743e4d46ef9c35cf81d11b7bd7f1917601b34f376c"
	if testing.Short() {
		t.Skip("generates 20,000 programs")
	}
	rng := rand.New(rand.NewSource(0))
	h := sha256.New()
	for seed := int64(0); seed < 20_000; seed++ {
		p, err := GenWith(rng, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n%v %v %q\n", p.Name, p.Source, p.Faulting, p.UsesMSR, p.Frags)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest of seeds 0–19,999 = %s, want %s", got, want)
	}
}
