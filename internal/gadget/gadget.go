// Package gadget is a static speculative-leakage analyzer over isa.Program.
//
// It walks the control-flow graph the way the OoO front end would on a
// mispredicted path, tracks register taint from secret-access sources
// (loads, privileged RDMSR, attacker-designated GPRs) to transmitters
// (dependent loads and indirect jumps), and emits the resulting gadgets —
// the access→transmit dependence chains of the paper's §4 taxonomy:
//
//   - steering (§4.1): a mis-steered guard (conditional branch, indirect
//     jump, or return) transiently executes code that accesses a secret and
//     forwards it into a covert channel (Spectre v1/v2/ret2spec, and the
//     §4.2 GPR variant where the secret is already register-resident).
//   - chosen-code (§4.3): the access itself is illegal — a load from a
//     kernel-only segment or a privileged RDMSR — and the core forwards the
//     faulting data before the fault commits (Meltdown, LazyFP).
//   - bypass (§4.1): a load issues past an older store whose address is not
//     yet computed and transiently reads stale data (Spectre v4 / SSB).
//
// Each gadget carries a per-policy Verdict derived by the semantic verdict
// engine (engine.go): every core.Policy exposes its propagation-gating
// rules as a declarative spec — []core.Gate, naming which dataflow edge
// class the policy cuts (load→use wakeups, any-producer wakeups, d-cache
// fills), over which chains (under a guard, bypassing a store, always), and
// until which release event (guards resolve, store addresses resolve,
// eldest, retire) — and the engine interprets that spec over the gadget's
// chain: the chain is blocked iff some applicable gate provably holds past
// the event that squashes the transient path. No per-policy verdict code
// exists here, so a policy added to internal/core gets static verdicts for
// free, and the spec is cross-validated against the dynamic attack matrix,
// the runtime propagation sanitizer, and the differential fuzzing harness
// (internal/diffuzz) in tests.
//
// Scope and soundness notes, matching what the simulator can measure:
//
//   - Transmitters are d-cache fills (loads) and BTB insertions (indirect
//     jumps), the two channels the attack harness's recover phases read.
//     Secret-dependent conditional branches are detected but reported as
//     advisory (Channel "branch") and excluded from program verdicts.
//   - Wrong-path stores do not transmit directly: the simulated d-cache
//     installs store data at retirement. But store DATA does propagate:
//     the dataflow tracks memory taint through store-to-load forwarding
//     with a single conservative memory cell (any tainted store may feed
//     any later in-region load), so a chain laundered through memory —
//     store the secret, load it back, transmit — is still a gadget.
//   - The transient window is bounded by Config.Window (default: the ROB
//     size used by ooo.DefaultParams).
package gadget

import (
	"fmt"
	"sort"
)

// Kind classifies a gadget by how the secret enters the transient chain.
type Kind string

const (
	KindSteering   Kind = "steering"
	KindChosenCode Kind = "chosen-code"
	KindBypass     Kind = "bypass"
)

// Channel names the covert channel the transmitter modulates.
type Channel string

const (
	ChannelDCache Channel = "d-cache"
	ChannelBTB    Channel = "btb"
	// ChannelBranch marks secret-dependent conditional branches. The
	// simulator's recover phases do not read a directional-predictor
	// channel, so these gadgets are advisory and excluded from program
	// verdicts.
	ChannelBranch Channel = "branch"
)

// Verdict is the static judgement for one gadget under one policy.
type Verdict struct {
	Blocked bool   `json:"blocked"`
	Reason  string `json:"reason"`
}

// Site is one instruction location in a gadget, rendered for reports.
type Site struct {
	PC  uint64 `json:"pc"`
	Asm string `json:"asm"`
	Sym string `json:"sym,omitempty"`
}

// Gadget is one access→transmit chain.
type Gadget struct {
	Kind     Kind    `json:"kind"`
	Channel  Channel `json:"channel"`
	Advisory bool    `json:"advisory,omitempty"`

	// Guard is the mis-steered branch for steering gadgets; nil otherwise.
	Guard *Site `json:"guard,omitempty"`
	// Source is the secret access: the load/RDMSR, or nil when the secret
	// starts register-resident (SourceReg set instead).
	Source    *Site  `json:"source,omitempty"`
	SourceReg string `json:"source_reg,omitempty"`
	// Transmit is the instruction that modulates the covert channel.
	Transmit Site `json:"transmit"`
	// Chain is a representative dependence path from source to transmitter
	// (capped; for context, not exhaustive).
	Chain []Site `json:"chain,omitempty"`

	// LoadFree is set when the chain from secret to transmitter contains no
	// load: the secret is register-resident and only ALU-processed (§4.2).
	LoadFree bool `json:"load_free,omitempty"`
	// DirectUse is set when the transmitter reads the secret register with
	// no intervening producer at all — nothing for propagation policies to
	// defer.
	DirectUse bool `json:"direct_use,omitempty"`

	// Verdicts maps policy name → static verdict.
	Verdicts map[string]Verdict `json:"verdicts"`
}

// Analysis is the result of analyzing one program.
type Analysis struct {
	Insts   int      `json:"insts"`
	Guards  int      `json:"guards"` // speculation-live steering points examined
	Gadgets []Gadget `json:"gadgets"`
	// Leaks maps policy name → whether any non-advisory gadget leaks under
	// that policy (the program-level verdict).
	Leaks map[string]bool `json:"leaks"`
	// LeaksByChannel resolves the verdict per covert channel ("d-cache",
	// "btb"): the dynamic attack harness measures exactly one channel per
	// PoC, so cross-validation compares against the matching entry. A
	// channel with no gadgets has no entry (everything blocked).
	LeaksByChannel map[string]map[string]bool `json:"leaks_by_channel,omitempty"`
}

// sortGadgets orders gadgets deterministically for reports and golden files.
func sortGadgets(gs []Gadget) {
	sort.Slice(gs, func(i, j int) bool {
		a, b := &gs[i], &gs[j]
		if a.Transmit.PC != b.Transmit.PC {
			return a.Transmit.PC < b.Transmit.PC
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		ap, bp := sitePC(a.Source), sitePC(b.Source)
		if ap != bp {
			return ap < bp
		}
		if a.SourceReg != b.SourceReg {
			return a.SourceReg < b.SourceReg
		}
		if a.LoadFree != b.LoadFree {
			return !a.LoadFree
		}
		if a.DirectUse != b.DirectUse {
			return !a.DirectUse
		}
		return sitePC(a.Guard) < sitePC(b.Guard)
	})
}

func sitePC(s *Site) uint64 {
	if s == nil {
		return 0
	}
	return s.PC
}

// String renders a one-line summary of the gadget.
func (g *Gadget) String() string {
	s := fmt.Sprintf("%s/%s", g.Kind, g.Channel)
	if g.Advisory {
		s += " (advisory)"
	}
	if g.Guard != nil {
		s += fmt.Sprintf(" guard=%s", siteStr(g.Guard))
	}
	if g.Source != nil {
		s += fmt.Sprintf(" source=%s", siteStr(g.Source))
	} else if g.SourceReg != "" {
		s += fmt.Sprintf(" source=reg:%s", g.SourceReg)
	}
	s += fmt.Sprintf(" transmit=%s", siteStr(&g.Transmit))
	if g.LoadFree {
		s += " load-free"
	}
	if g.DirectUse {
		s += " direct-use"
	}
	return s
}

func siteStr(s *Site) string {
	if s.Sym != "" {
		return fmt.Sprintf("%#x<%s>", s.PC, s.Sym)
	}
	return fmt.Sprintf("%#x", s.PC)
}
