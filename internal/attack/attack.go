// Package attack implements proofs-of-concept for the speculative execution
// attacks the paper analyzes, as programs for the simulated ISA:
//
//   - Spectre v1 with the classic D-cache covert channel (Listing 1);
//   - Spectre v1 with the paper's new BTB covert channel (§3, Listing 3);
//   - Spectre v2 (branch target injection through the BTB) and ret2spec
//     (return stack buffer mis-steering), the remaining control-steering
//     rows of Table 1;
//   - Meltdown: a faulting kernel load whose data flows to wrong-path
//     dependents before the fault commits (Listing 2);
//   - Speculative Store Bypass (Spectre v4): a load speculatively reading
//     stale data past a store with an unresolved address;
//   - a LazyFP / Meltdown-v3a analogue: a privileged RDMSR leaking a
//     special register;
//   - the hypothetical single-gadget GPR-steering attack of §4.2, which
//     transmits a register-resident secret with no access-phase load.
//
// Every PoC plants the secret byte 42, runs the three phases
// (access/transmit/recover) on a simulated core, and returns the per-guess
// timing series the paper plots in Fig. 4 / Fig. 8 plus a leak verdict.
// Each PoC is assembled once per process, together with the checkpoint its
// runs start from; a run resumes a worker's checkpoint.Cores from it, as
// sweep cells resume theirs from a workload's series. The expected
// leak/block outcome for every (attack, policy) pair — Table 2's security
// columns — is encoded in Expected and verified by the integration tests.
package attack

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"nda/internal/asm"
	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/ooo"
)

// SecretByte is the value every PoC plants and tries to exfiltrate.
const SecretByte = 42

// NumGuesses is the size of the guess space (one byte).
const NumGuesses = 256

// Common data-layout constants shared by the PoC programs.
const (
	probeStride = 512 // bytes between probe entries, as in the paper's PoCs
)

// Kind identifies one attack PoC.
type Kind string

// The implemented attacks.
const (
	SpectreV1Cache Kind = "spectre-v1-cache"
	SpectreV1BTB   Kind = "spectre-v1-btb"
	SpectreV2      Kind = "spectre-v2"
	Ret2spec       Kind = "ret2spec"
	Meltdown       Kind = "meltdown"
	SSB            Kind = "ssb"
	LazyFP         Kind = "lazyfp-rdmsr"
	GPRSteering    Kind = "gpr-steering"
	// GPRSteeringSpecOff is GPRSteering against a victim hardened with the
	// paper's §8 Listing 4 software defense (a no-speculation window).
	GPRSteeringSpecOff Kind = "gpr-steering-specoff"
)

// All returns every implemented attack, in Table 1 order.
func All() []Kind {
	return []Kind{SpectreV1Cache, SpectreV1BTB, SpectreV2, Ret2spec, Meltdown, SSB, LazyFP, GPRSteering, GPRSteeringSpecOff}
}

// ByName resolves an attack's name (its Kind string).
func ByName(name string) (Kind, error) {
	for _, k := range All() {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("attack: unknown attack %q", name)
}

// inOrderName labels the in-order core's outcomes and matrix cells.
const inOrderName = "In-Order"

// Class returns the attack's taxonomy class (Table 1).
func (k Kind) Class() string {
	switch k {
	case SpectreV1Cache, SpectreV1BTB, SpectreV2, Ret2spec, SSB, GPRSteering, GPRSteeringSpecOff:
		return "control-steering"
	default:
		return "chosen-code"
	}
}

// Channel returns the covert channel the attack transmits over.
func (k Kind) Channel() string {
	if k == SpectreV1BTB {
		return "btb"
	}
	return "d-cache"
}

// poc is a built PoC: its program, the state every run of it starts from
// (its data loaded and, for LazyFP, the planted MSR secret), and the
// channel threshold analyze judges its series by.
type poc struct {
	prog  *isa.Program
	start *checkpoint.Checkpoint
	// threshold is the minimum timing margin (cycles) that counts as a
	// leak for this attack's channel.
	threshold float64
	// warm, if set, prepares the OoO core's microarchitectural state after
	// the resume (Meltdown's warm kernel line). The in-order core has no
	// speculation for it to matter to.
	warm func(c *ooo.Core)
}

// newPoC assembles a PoC's source, panicking on generator bugs, and takes
// its start state: the program's data loaded, at its entry point.
func newPoC(src string, threshold float64) *poc {
	prog := asm.MustAssemble(src)
	return &poc{prog: prog, start: checkpoint.Start(prog), threshold: threshold}
}

// pocs builds each PoC on its first use and keeps it for the process.
// Runs only read a PoC: each resumes its own core from the shared start
// state.
var pocs = map[Kind]func() *poc{
	SpectreV1Cache:     sync.OnceValue(specSpectreV1Cache),
	SpectreV1BTB:       sync.OnceValue(specSpectreV1BTB),
	SpectreV2:          sync.OnceValue(specSpectreV2),
	Ret2spec:           sync.OnceValue(specRet2spec),
	Meltdown:           sync.OnceValue(specMeltdown),
	SSB:                sync.OnceValue(specSSB),
	LazyFP:             sync.OnceValue(specLazyFP),
	GPRSteering:        sync.OnceValue(specGPRSteering),
	GPRSteeringSpecOff: sync.OnceValue(specGPRSteeringSpecOff),
}

// lookup returns kind's PoC.
func lookup(kind Kind) (*poc, error) {
	if build := pocs[kind]; build != nil {
		return build(), nil
	}
	return nil, fmt.Errorf("attack: unknown kind %q", kind)
}

// Outcome is the result of one attack run.
type Outcome struct {
	Attack Kind
	Policy string

	// Series holds the measured cycles per guess (Fig. 4 / Fig. 8).
	Series [NumGuesses]float64
	// Secret is the planted byte.
	Secret byte
	// BestGuess is the guess with the fastest timing.
	BestGuess int
	// Margin is how many cycles faster the secret's own guess is than the
	// median guess; it must exceed the channel threshold to count as a
	// leak. (Keying on the secret rather than the arg-min is robust to
	// benign dips, e.g. SSB's architectural re-execution transmitting the
	// sanitized value.)
	Margin float64
	// Leaked reports whether the attack recovered the secret.
	Leaked bool

	// Cycles is the total simulation length (diagnostics).
	Cycles uint64

	// SanitizerViolations counts runtime propagation-invariant violations
	// observed by the ooo sanitizer during the run; always 0 unless
	// Params.Sanitize was set.
	SanitizerViolations uint64
}

func (o *Outcome) String() string {
	verdict := "blocked"
	if o.Leaked {
		verdict = "LEAKED"
	}
	return fmt.Sprintf("%-18s under %-18s: %s (best=%d secret=%d margin=%.1f cycles)",
		string(o.Attack), o.Policy, verdict, o.BestGuess, o.Secret, o.Margin)
}

// RunCtx executes the PoC on an OoO core under the given policy and
// analyzes the timing series. Params usually come from ooo.DefaultParams
// (with MeltdownVulnerable true, the paper's baseline hardware). The core
// polls ctx.Done() while it runs, so a timeout or job cancellation stops
// the PoC mid-simulation.
func RunCtx(ctx context.Context, kind Kind, pol core.Policy, params ooo.Params) (*Outcome, error) {
	return Cell{Attack: kind, Pol: pol}.Run(ctx, params)
}

// Program returns the PoC program for static analysis (internal/gadget and
// cmd/ndalint run the analyzer over every snippet). It is the program
// every run of the PoC executes, so callers only read it.
func Program(kind Kind) (*isa.Program, error) {
	p, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	return p.prog, nil
}

// SecretRegs returns the registers the PoC plants a secret in
// architecturally (the §4.2 GPR-steering variants); nil for attacks whose
// secret lives in memory or an MSR.
func SecretRegs(kind Kind) []isa.Reg {
	switch kind {
	case GPRSteering, GPRSteeringSpecOff:
		return []isa.Reg{isa.RegS5}
	}
	return nil
}

// analyze reads the per-guess timing array the PoC left in memory and
// decides whether the secret leaked: the fastest guess must equal the
// planted secret and beat the median by the channel threshold.
func analyze(kind Kind, policy string, threshold float64, read func(addr uint64, size int) uint64) *Outcome {
	out := &Outcome{Attack: kind, Policy: policy, Secret: SecretByte}
	vals := make([]float64, NumGuesses)
	best := 0
	for g := 0; g < NumGuesses; g++ {
		v := float64(read(resultsAddr+uint64(g)*8, 8))
		out.Series[g] = v
		vals[g] = v
		if v < out.Series[best] {
			best = g
		}
	}
	sort.Float64s(vals)
	median := vals[NumGuesses/2]
	out.BestGuess = best
	out.Margin = median - out.Series[SecretByte]
	out.Leaked = out.Margin >= threshold
	return out
}
