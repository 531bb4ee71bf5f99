// Package progen generates seeded, deterministic programs for differential
// soundness fuzzing of the static gadget analyzer (internal/gadget) against
// the timing cores (internal/ooo).
//
// Each seed expands to a small assembly program built from one to four
// fragments drawn from a library of gadget templates (cache/BTB steering,
// chosen-code via kernel loads and privileged MSR reads, store-bypass) and
// deliberately-safe templates (fence-cut paths, taint kills, SPECOFF
// brackets, benign pointer chases). The fragments are parameterized by the
// seed — secret offsets, transmit masks, dependence-chain padding — so a
// sweep over seeds exercises the analyzer's taint lattice broadly while
// every program stays architecturally secret-independent: no fragment ever
// reads a planted secret on the architectural path. That discipline is what
// makes the differential harness (internal/diffuzz) sound: if the static
// analyzer calls a program SAFE under a policy but two runs with different
// planted secrets produce different channel traces, the analyzer — not the
// program — is wrong.
//
// Generator disciplines the harness relies on:
//
//   - Single-shot steering: every guard branch loads its flag from a cold
//     line and is architecturally always taken, while the zero-initialized
//     pattern history table predicts not-taken on first encounter. The
//     wrong path therefore executes exactly once, inside a ~DRAM-latency
//     window, with no training loops.
//   - Fragment isolation: every fragment ends in FENCE on all paths, so no
//     transient region leaks into the next fragment and the static
//     analyzer's regions match the dynamic speculation windows.
//   - At most one faulting fragment per program, with a trap handler that
//     resumes at the fragment's own FENCE.
//   - Secrets live only at the exported SecretBase/StaleBase/KSecretBase
//     regions (plus the planted MSR); the harness owns planting and cache
//     warming. Program-local data (flags, pointers, jump tables) is fixed
//     by the seed and identical across secret vectors.
package progen

import (
	"fmt"
	"math/rand"
	"strconv"

	"nda/internal/asm"
	"nda/internal/isa"
)

// Memory layout shared with the differential harness. Each region is one
// 64-byte cache line, so a single warming access covers it.
const (
	// SecretBase is the user-mode secret region read only by wrong-path
	// (steering) fragments.
	SecretBase = 0x1C0000
	// StaleBase is the stale-secret region used by store-bypass fragments:
	// the harness plants a secret there, and the generated program
	// architecturally overwrites the read byte with zero before (in
	// program order) reading it back.
	StaleBase = 0x1C2000
	// KSecretBase is the kernel-only secret region read by chosen-code
	// fragments; the architectural read always faults.
	KSecretBase = 0x1C4000
	// SecretBytes is the size of each secret region.
	SecretBytes = 64

	// ProbeBase is the transmit probe array; fragment f owns the 4KiB
	// sub-range at ProbeBase+f*probeStride, indexed in 512-byte steps.
	ProbeBase   = 0x180000
	probeStride = 0x1000
	lineShift   = 9 // transmit slot stride: 512 bytes, two cache lines

	// dataBase anchors per-fragment control cells. Each fragment owns a
	// 256-byte block holding its guard flag (+0x00), cold cell (+0x40),
	// and kind-specific cell (+0x80: bypass pointer, scratch slot, jump
	// table, or pointer-chase head); the offsets keep the cells on
	// distinct cache lines so a guard-flag miss never warms a cold cell.
	dataBase    = 0x100000
	fragStride  = 0x100
	offCold     = 0x40
	offAux      = 0x80
	offChaseEnd = 0xC0
)

// Fragment kind names, as recorded in Program.Frags.
const (
	FragSteerDCache  = "steer-dcache"
	FragSteerMemory  = "steer-memory"
	FragSteerBTB     = "steer-btb"
	FragChosenDirect = "chosen-direct"
	FragChosenChain  = "chosen-chain"
	FragChosenMemory = "chosen-memory"
	FragChosenMSR    = "chosen-msr"
	FragBypass       = "bypass"
	FragSafeFence    = "safe-fence"
	FragSafeKill     = "safe-kill"
	FragSafeSpecOff  = "safe-specoff"
	FragBenignLoop   = "benign-loop"
)

// GadgetKinds lists the fragment kinds that plant a real transient leak.
var GadgetKinds = []string{
	FragSteerDCache, FragSteerMemory, FragSteerBTB,
	FragChosenDirect, FragChosenChain, FragChosenMemory, FragChosenMSR,
	FragBypass,
}

// SafeKinds lists the fragment kinds that are secret-independent under
// every policy, dynamically and (for all but benign-loop) statically.
var SafeKinds = []string{
	FragSafeFence, FragSafeKill, FragSafeSpecOff, FragBenignLoop,
}

// faulting reports whether a fragment kind takes an architectural fault.
func faulting(kind string) bool {
	switch kind {
	case FragChosenDirect, FragChosenChain, FragChosenMemory, FragChosenMSR:
		return true
	}
	return false
}

// Program is one generated fuzz case.
type Program struct {
	Name   string
	Seed   int64
	Source string
	Prog   *isa.Program
	// Faulting programs install a trap handler and take exactly one
	// architectural fault (delivered identically for every secret vector).
	Faulting bool
	// UsesMSR programs read the planted secret MSR (isa.MSRSecretKey), so
	// the harness must vary the MSR value between runs, not just memory.
	UsesMSR bool
	// Frags names the emitted fragment kinds in program order.
	Frags []string
}

// Gen deterministically expands one seed into a program. The same seed
// always yields byte-identical source. An assembly error is a generator
// bug, never an input problem.
func Gen(seed int64) (*Program, error) {
	return gen(rand.New(rand.NewSource(seed)), seed)
}

// GenWith is Gen drawing from rng, reseeded with seed, instead of a new
// source: the same program, without the source's allocation. A caller that
// generates many programs keeps one rng for all of them.
func GenWith(rng *rand.Rand, seed int64) (*Program, error) {
	rng.Seed(seed)
	return gen(rng, seed)
}

// gen expands seed into a program, drawing from rng, seeded with seed.
func gen(rng *rand.Rand, seed int64) (*Program, error) {
	// Whole programs stay under 2 KB, so the sections rarely grow.
	e := &emitter{rng: rng, text: make(src, 0, 2048), data: make(src, 0, 512), tail: make(src, 0, 256)}

	n := 1 + rng.Intn(4)
	kinds := make([]string, 0, n)
	safeOnly := rng.Intn(4) == 0
	haveFault := false
	for i := 0; i < n; i++ {
		var k string
		for {
			if safeOnly {
				k = SafeKinds[rng.Intn(len(SafeKinds))]
			} else if rng.Intn(3) == 0 {
				k = SafeKinds[rng.Intn(len(SafeKinds))]
			} else {
				k = GadgetKinds[rng.Intn(len(GadgetKinds))]
			}
			if !faulting(k) || !haveFault {
				break
			}
		}
		if faulting(k) {
			haveFault = true
		}
		kinds = append(kinds, k)
	}

	src := e.program(kinds)
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("progen: seed %d assembles badly: %w\n%s", seed, err, src)
	}
	return &Program{
		Name:     "progen/" + strconv.FormatInt(seed, 10),
		Seed:     seed,
		Source:   src,
		Prog:     prog,
		Faulting: haveFault,
		UsesMSR:  e.usesMSR,
		Frags:    kinds,
	}, nil
}

// emitter accumulates the text and data sections of one program.
type emitter struct {
	rng     *rand.Rand
	text    src
	data    src
	tail    src // stubs and the trap handler, after halt
	usesMSR bool
}

// src is assembly source under construction. Its methods append and
// return it, so a line reads as a chain of its parts.
type src []byte

func (s *src) str(parts ...string) *src {
	for _, p := range parts {
		*s = append(*s, p...)
	}
	return s
}

// num appends v in decimal.
func (s *src) num(v int) *src {
	*s = strconv.AppendInt(*s, int64(v), 10)
	return s
}

// hex appends v as 0x-prefixed lowercase hex.
func (s *src) hex(v int) *src {
	*s = strconv.AppendInt(append(*s, "0x"...), int64(v), 16)
	return s
}

const indent = "        "

// code emits one instruction line.
func (e *emitter) code(inst string) { e.text.str(indent, inst, "\n") }

// codeNum emits an instruction line ending in v, in decimal.
func (e *emitter) codeNum(inst string, v int) { e.text.str(indent, inst).num(v).str("\n") }

// codeHex emits an instruction line ending in v, in hex.
func (e *emitter) codeHex(inst string, v int) { e.text.str(indent, inst).hex(v).str("\n") }

// label emits the label prefix followed by fragment number f.
func (e *emitter) label(prefix string, f int) { e.text.str(prefix).num(f).str(":\n") }

func (e *emitter) program(kinds []string) string {
	// Prologue: install the trap handler before any fragment can fault,
	// and architecturally warm each BTB fragment's jump table (its entries
	// are fixed stub addresses, so the warming load is secret-independent).
	for f, k := range kinds {
		if faulting(k) {
			e.codeNum("la   t0, handler", f)
			e.code("wrmsr 0x0, t0")
		}
		if k == FragSteerBTB {
			e.codeHex("li   t6, ", e.aux(f))
			e.code("ld   t6, 0(t6)")
		}
	}
	for f, k := range kinds {
		e.fragment(f, k)
	}
	e.code("halt")

	b := make(src, 0, 128+len(e.data)+len(e.text)+len(e.tail))
	b.str(indent, ".data\n")
	b = append(b, e.data...)
	// The kernel secret region is always emitted: chosen-code detection
	// keys on loads whose resolved address falls inside a kernel segment,
	// and the page protection is what makes the architectural read fault.
	// .word64 rather than .space: the kernel region must be a real data
	// segment (".space" only advances the cursor), both so the loader
	// protects the page and so the analyzer's kernel-address check sees it.
	b.str(indent, ".org ").hex(KSecretBase).str("\n",
		indent, ".kernel\nksecret: .word64 0, 0, 0, 0, 0, 0, 0, 0\n",
		indent, ".text\nmain:\n")
	b = append(b, e.text...)
	b = append(b, e.tail...)
	return string(b)
}

// Per-fragment cell addresses.
func (e *emitter) flag(f int) int  { return dataBase + f*fragStride }
func (e *emitter) cold(f int) int  { return dataBase + f*fragStride + offCold }
func (e *emitter) aux(f int) int   { return dataBase + f*fragStride + offAux }
func (e *emitter) probe(f int) int { return ProbeBase + f*probeStride }

// guardHead emits the single-shot steering guard: a cold flag load feeding
// an always-taken branch that the cold predictor resolves not-taken. The
// body emitted after it is the wrong path; guardTail closes the fragment.
func (e *emitter) guardHead(f int) {
	e.data.str(indent, ".org ").hex(e.flag(f)).str("\nflag").num(f).str(":  .word64 1\n")
	e.codeHex("li   t0, ", e.flag(f))
	e.code("ld   t1, 0(t0)")
	e.codeNum("bne  t1, zero, skip", f)
}

func (e *emitter) guardTail(f int) {
	e.label("skip", f)
	e.code("fence")
}

// chain emits 0-2 taint-preserving scrambles of t3, lengthening the
// dependence chain so the analyzer sees non-direct-use flavors. When min
// is 1 at least one hop is emitted (chosen-chain).
func (e *emitter) chain(min int) {
	hops := min + e.rng.Intn(3-min)
	for i := 0; i < hops; i++ {
		switch e.rng.Intn(3) {
		case 0:
			e.code("xori t3, t3, 0x55")
		case 1:
			e.code("addi t3, t3, 0")
		case 2:
			e.code("add  t3, t3, zero")
		}
	}
}

// transmit emits the d-cache transmitter: mask t3 down to a slot index and
// touch the fragment's probe sub-range at that slot.
func (e *emitter) transmit(f int) {
	mask := []int{1, 3, 7}[e.rng.Intn(3)]
	e.codeNum("andi t3, t3, ", mask)
	e.codeNum("slli t3, t3, ", lineShift)
	e.codeHex("li   t4, ", e.probe(f))
	e.code("add  t4, t4, t3")
	e.code("lbu  t5, 0(t4)")
}

// launder moves t3 through memory: a store to the fragment's scratch cell
// immediately read back. On the wrong path the load can only be satisfied
// by store-to-load forwarding; statically this is the edge only the memory
// taint cell tracks.
func (e *emitter) launder(f int) {
	e.codeHex("li   t6, ", e.aux(f))
	e.code("sd   t3, 0(t6)")
	e.code("ld   t3, 0(t6)")
}

// coldDelay emits the retirement-delay load that holds a subsequent fault
// at the ROB head for a DRAM round trip, keeping the transient dependents
// of the faulting instruction alive long enough to transmit.
func (e *emitter) coldDelay(f int) {
	e.codeHex("li   t0, ", e.cold(f))
	e.code("ld   t1, 0(t0)")
}

func (e *emitter) secretOff() int { return e.rng.Intn(SecretBytes) }

func (e *emitter) fragment(f int, kind string) {
	e.text.str("# frag ").num(f).str(": ", kind, "\n")
	switch kind {
	case FragSteerDCache:
		e.guardHead(f)
		e.codeHex("li   t2, ", SecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		e.chain(0)
		e.transmit(f)
		e.guardTail(f)

	case FragSteerMemory:
		e.guardHead(f)
		e.codeHex("li   t2, ", SecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		e.launder(f)
		e.transmit(f)
		e.guardTail(f)

	case FragSteerBTB:
		// Secret-indexed indirect jump through a two-entry table of dead
		// stubs: the BTB install at the jump's resolution is the channel.
		e.data.str(indent, ".org ").hex(e.aux(f)).str("\njt").num(f).
			str(":    .word64 stub").num(f).str("_0, stub").num(f).str("_1\n")
		e.tail.str("stub").num(f).str("_0: j stub").num(f).str("_0\n")
		e.tail.str("stub").num(f).str("_1: j stub").num(f).str("_1\n")
		e.guardHead(f)
		e.codeHex("li   t2, ", SecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		e.code("andi t3, t3, 1")
		e.code("slli t3, t3, 3")
		e.codeHex("li   t4, ", e.aux(f))
		e.code("add  t4, t4, t3")
		e.code("ld   t5, 0(t4)")
		e.code("jr   t5")
		e.guardTail(f)

	case FragChosenDirect, FragChosenChain, FragChosenMemory:
		e.coldDelay(f)
		e.codeHex("li   t2, ", KSecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		switch kind {
		case FragChosenChain:
			e.chain(1)
		case FragChosenMemory:
			e.launder(f)
		}
		e.transmit(f)
		e.fragEpilogue(f)

	case FragChosenMSR:
		// LazyFP analogue: the privileged MSR read faults, its transient
		// value is an address, and the dependent load's fill IS the
		// transmit — no probe arithmetic at all.
		e.usesMSR = true
		e.coldDelay(f)
		e.codeHex("rdmsr t2, ", int(isa.MSRSecretKey))
		e.code("lbu  t3, 0(t2)")
		e.fragEpilogue(f)

	case FragBypass:
		// Spectre v4: the sanitizing store's address arrives from a cold
		// pointer load, the stale-slot read below it speculatively
		// bypasses the store, and the dependents transmit the planted
		// stale secret. Architecturally the store lands first, so the
		// read byte is zero under every secret vector.
		off := e.secretOff()
		e.data.str(indent, ".org ").hex(e.aux(f)).str("\nptr").num(f).
			str(":   .word64 ").hex(StaleBase + off).str("\n")
		e.codeHex("li   t0, ", e.aux(f))
		e.code("ld   t1, 0(t0)")
		e.code("sd   zero, 0(t1)")
		e.codeHex("li   t2, ", StaleBase+off)
		e.code("lbu  t3, 0(t2)")
		e.chain(0)
		e.transmit(f)
		e.code("fence")

	case FragSafeFence:
		// The wrong path opens with FENCE: fetch past it cannot issue
		// before the guard resolves, so the secret body below is dead
		// both statically (region cut) and dynamically.
		e.guardHead(f)
		e.code("fence")
		e.codeHex("li   t2, ", SecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		e.transmit(f)
		e.guardTail(f)

	case FragSafeKill:
		// The secret is loaded on the wrong path but overwritten by an
		// immediate before any use: the transmit address is a constant.
		e.guardHead(f)
		e.codeHex("li   t2, ", SecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		e.codeNum("li   t3, ", e.rng.Intn(8))
		e.transmit(f)
		e.guardTail(f)

	case FragSafeSpecOff:
		// Listing 4 software defense: with speculation fenced off around
		// the guard there is no wrong path to steer.
		e.code("specoff")
		e.guardHead(f)
		e.codeHex("li   t2, ", SecretBase+e.secretOff())
		e.code("lbu  t3, 0(t2)")
		e.transmit(f)
		e.label("skip", f)
		e.code("specon")
		e.code("fence")

	case FragBenignLoop:
		// A two-hop pointer chase: the loop's back edge makes the chase
		// load part of its own guard's transient region, so the analyzer
		// reports a steering gadget, but every address is a fixed
		// program-local pointer — deliberate false-positive fodder for
		// the precision census.
		end := dataBase + f*fragStride + offChaseEnd
		e.data.str(indent, ".org ").hex(e.aux(f)).str("\nchase").num(f).str(": .word64 ").hex(end).
			str("\n", indent, ".org ").hex(end).str("\n", indent, ".word64 0\n")
		e.codeHex("li   t1, ", e.aux(f))
		e.label("loop", f)
		e.code("ld   t1, 0(t1)")
		e.codeNum("bne  t1, zero, loop", f)
		e.code("fence")

	default:
		panic("progen: unknown fragment kind " + kind)
	}
}

// fragEpilogue closes a faulting fragment: the trap handler (installed in
// the prologue) lands on resumeN, skipping the transient dependents.
func (e *emitter) fragEpilogue(f int) {
	e.label("resume", f)
	e.code("fence")
	e.tail.str("handler").num(f).str(": j resume").num(f).str("\n")
}
