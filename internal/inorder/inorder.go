// Package inorder implements the in-order baseline core: a single-issue,
// blocking-memory timing model in the role gem5's TimingSimpleCPU plays in
// the paper. It executes architecturally via the reference emulator and
// charges timing around each instruction:
//
//   - instruction fetch pays the I-cache round trip whenever fetch crosses
//     into a new cache line;
//   - every instruction pays its execution latency;
//   - loads and stores block for the full D-cache round trip;
//   - taken control transfers pay a small redirect penalty.
//
// There is no speculation of any kind, so the core is trivially immune to
// every speculative execution attack — the paper's "secure but slow" bound.
// Its MLP and ILP can never exceed 1.0 (§6.3).
package inorder

import (
	"errors"
	"fmt"

	"nda/internal/cache"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/mem"
	"nda/internal/stats"
)

// Params configures the in-order core's latencies.
type Params struct {
	ALULatency      int
	MulLatency      int
	DivLatency      int
	MSRLatency      int
	RedirectPenalty int // taken branches/jumps/faults
}

// DefaultParams matches the OoO core's functional-unit latencies.
func DefaultParams() Params {
	return Params{
		ALULatency:      1,
		MulLatency:      3,
		DivLatency:      20,
		MSRLatency:      4,
		RedirectPenalty: 2,
	}
}

// Machine is one in-order core instance.
type Machine struct {
	emu  *emu.Machine
	hier *cache.Hierarchy
	p    Params

	cycle         uint64
	lastFetchLine uint64
	stats         stats.Counters

	// Cancel, when non-nil, aborts Run/RunInsts with ErrCancelled shortly
	// after the channel closes (polled every cancelStride instructions).
	Cancel <-chan struct{}
}

// New builds an in-order machine running prog on the given memory image.
func New(prog *isa.Program, m *mem.Memory, p Params) *Machine {
	mc := &Machine{
		emu:  new(emu.Machine),
		hier: cache.NewHierarchy(cache.DefaultHierarchyParams()),
		p:    p,
	}
	mc.Reset(prog, m)
	return mc
}

// Reset puts the machine back into exactly the state New builds for prog
// and m, keeping its emulator and its cache hierarchy, which empties in
// O(1). Params are kept; Cancel and the statistics are cleared. The
// harness's sweep workers keep one machine each and Reset it per cell.
func (m *Machine) Reset(prog *isa.Program, mm *mem.Memory) {
	m.hier.Reset()
	*m.emu = *emu.NewWithMemory(prog, mm)
	*m = Machine{emu: m.emu, hier: m.hier, p: m.p, lastFetchLine: ^uint64(0)}
}

// NewFromProgram builds a machine with a fresh memory initialized from the
// program's data segments.
func NewFromProgram(prog *isa.Program, p Params) *Machine {
	m := mem.New()
	emu.Load(m, prog)
	return New(prog, m, p)
}

// Params returns the configuration the machine was built with.
func (m *Machine) Params() Params { return m.p }

// Emu exposes the underlying architectural machine.
func (m *Machine) Emu() *emu.Machine { return m.emu }

// Cycles returns the simulated cycle count.
func (m *Machine) Cycles() uint64 { return m.cycle }

// Retired returns committed instructions.
func (m *Machine) Retired() uint64 { return m.emu.Retired }

// Halted reports whether HALT executed.
func (m *Machine) Halted() bool { return m.emu.Halted }

// Stats returns counters accumulated since the last reset: cycles, commits,
// MLP and ILP, with every cycle a commit cycle (the blocking core never
// stalls with nothing retiring in flight). MLP and ILP can never exceed 1.0.
func (m *Machine) Stats() *stats.Counters { return &m.stats }

// ResetStats zeroes the counters (end of warm-up).
func (m *Machine) ResetStats() {
	m.stats = stats.Counters{}
	m.hier.ResetStats()
}

func (m *Machine) execLatency(op isa.Op) int {
	switch op {
	case isa.OpMul:
		return m.p.MulLatency
	case isa.OpDiv, isa.OpRem:
		return m.p.DivLatency
	case isa.OpRdmsr, isa.OpWrmsr:
		return m.p.MSRLatency
	default:
		return m.p.ALULatency
	}
}

// Step executes one instruction and advances the clock by its full cost.
func (m *Machine) Step() error {
	if m.emu.Halted {
		return nil
	}
	pc := m.emu.PC
	var fetchLat int
	lineMask := ^uint64(m.hier.LineBytes() - 1)
	if line := pc & lineMask; line != m.lastFetchLine {
		res := m.hier.Inst(pc)
		m.lastFetchLine = line
		fetchLat = res.Latency
	}

	if err := m.emu.Step(); err != nil {
		return err
	}
	info := m.emu.Last
	if info.Inst.Op == isa.OpRdcycle && info.Inst.Rd != isa.RegZero {
		// The functional emulator has no clock; substitute the real cycle
		// count so timing measurements (attack PoCs) are meaningful here.
		m.emu.Regs[info.Inst.Rd] = m.cycle
	}

	lat := uint64(fetchLat + m.execLatency(info.Inst.Op))
	if info.MemSize > 0 && !info.Faulted {
		res := m.hier.Data(info.MemAddr)
		lat += uint64(res.Latency)
		if res.OffChip() {
			// One blocking outstanding miss for its whole duration.
			m.stats.MLPSum += uint64(res.Latency)
			m.stats.MLPCycles += uint64(res.Latency)
		}
	}
	if info.Inst.Op == isa.OpClflush {
		m.hier.Flush(m.emu.Regs[info.Inst.Rs1] + uint64(info.Inst.Imm))
	}
	if info.Taken {
		lat += uint64(m.p.RedirectPenalty)
		m.lastFetchLine = ^uint64(0)
	}
	if lat == 0 {
		lat = 1
	}

	m.cycle += lat
	m.stats.Cycles += lat
	m.stats.CommitCycles += lat
	m.stats.Committed++
	// One instruction issues per issuing cycle: ILP is exactly 1.0, the
	// in-order bound the paper cites.
	m.stats.ILPSum++
	m.stats.ILPCycles++
	return nil
}

// Run executes until HALT or maxInsts instructions.
func (m *Machine) Run(maxInsts uint64) error {
	for step := uint64(0); !m.emu.Halted; step++ {
		if m.emu.Retired >= maxInsts {
			return fmt.Errorf("inorder: exceeded %d instructions without halting", maxInsts)
		}
		if m.cancelled(step) {
			return ErrCancelled
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunInsts executes at most n further instructions.
func (m *Machine) RunInsts(n uint64) error {
	target := m.emu.Retired + n
	for step := uint64(0); !m.emu.Halted && m.emu.Retired < target; step++ {
		if m.cancelled(step) {
			return ErrCancelled
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// ErrCancelled is returned by Run/RunInsts when the Cancel channel closes.
var ErrCancelled = errors.New("inorder: simulation cancelled")

// cancelStride is how many instructions may retire between Cancel polls.
const cancelStride = 1 << 12

// cancelled polls the Cancel channel at most once per cancelStride steps.
func (m *Machine) cancelled(step uint64) bool {
	if m.Cancel == nil || step&(cancelStride-1) != 0 {
		return false
	}
	select {
	case <-m.Cancel:
		return true
	default:
		return false
	}
}
