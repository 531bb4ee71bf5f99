// Package emu implements a functional (architectural) reference emulator for
// the ISA. It executes one instruction at a time with no notion of caches,
// pipelines, or speculation, and serves as the golden model the timing cores
// are differentially tested against: after running the same program on the
// same initial memory image, registers, memory, and retirement counts must
// match exactly.
//
// RDCYCLE is the one deliberate divergence: a functional emulator has no
// cycles, so it returns the retired-instruction count. Programs whose
// architectural results depend on RDCYCLE values (the attack PoCs) are not
// differentially tested.
package emu

import (
	"fmt"

	"nda/internal/isa"
	"nda/internal/mem"
)

// Load applies a program's data segments and page protections to a memory.
func Load(m *mem.Memory, p *isa.Program) {
	for _, seg := range p.Data {
		m.StoreBytes(seg.Addr, seg.Bytes)
		if seg.Kernel {
			m.SetKernel(seg.Addr, uint64(len(seg.Bytes)))
		}
	}
}

// Machine is the architectural state of the reference emulator.
type Machine struct {
	Prog *isa.Program
	Mem  *mem.Memory
	Regs [isa.NumGPR]uint64
	MSR  [isa.NumMSR]uint64
	PC   uint64

	// UserMode selects whether protection checks apply. All workloads and
	// attacks in this repository run in user mode.
	UserMode bool

	Halted  bool
	Retired uint64

	// Faults counts architectural faults taken (delivered to the handler).
	Faults uint64

	// Last describes the most recently executed instruction; timing
	// wrappers (the in-order core) read it to charge cache latencies.
	Last StepInfo
}

// StepInfo is the trace record of one executed instruction.
type StepInfo struct {
	PC      uint64
	Inst    isa.Inst
	MemAddr uint64 // valid when MemSize > 0
	MemSize int    // 0 for non-memory instructions
	IsStore bool
	Taken   bool // control transfer taken (branches, jumps, faults)
	Faulted bool
}

// New builds a machine with the program loaded into a fresh memory, PC at
// the entry point, and user mode enabled.
func New(p *isa.Program) *Machine {
	m := mem.New()
	Load(m, p)
	return &Machine{Prog: p, Mem: m, PC: p.Entry, UserMode: true}
}

// NewWithMemory builds a machine on an existing memory image (which must
// already contain the program's data).
func NewWithMemory(p *isa.Program, m *mem.Memory) *Machine {
	return &Machine{Prog: p, Mem: m, PC: p.Entry, UserMode: true}
}

// fault delivers an architectural fault: if a trap handler is installed the
// machine vectors to it, otherwise the fault is fatal.
func (m *Machine) fault(kind isa.FaultKind, addr uint64) error {
	m.Faults++
	m.Last.Faulted = true
	m.Last.Taken = true
	handler := m.MSR[isa.MSRTrapHandler]
	if handler == 0 {
		return fmt.Errorf("emu: unhandled fault %v at pc=%#x addr=%#x", kind, m.PC, addr)
	}
	m.MSR[isa.MSRTrapCause] = uint64(kind)
	m.MSR[isa.MSRTrapAddr] = addr
	m.PC = handler
	return nil
}

func (m *Machine) readReg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) writeReg(r isa.Reg, v uint64) {
	if r != isa.RegZero {
		m.Regs[r] = v
	}
}

// Step executes one instruction. It returns an error only for conditions
// that cannot be delivered as architectural faults (fatal simulation
// errors): fetching outside the text segment or an invalid opcode with no
// handler installed.
func (m *Machine) Step() error {
	if m.Halted {
		return nil
	}
	inst, ok := m.Prog.At(m.PC)
	if !ok {
		return fmt.Errorf("emu: fetch outside text segment at pc=%#x", m.PC)
	}
	next := m.PC + isa.InstBytes
	m.Last = StepInfo{PC: m.PC, Inst: inst}

	switch {
	case isa.IsALU(inst.Op):
		b := isa.ALUOperandB(inst, m.readReg(inst.Rs2))
		a := m.readReg(inst.Rs1)
		if inst.Op == isa.OpLui {
			a = 0
		}
		m.writeReg(inst.Rd, isa.EvalALU(inst.Op, a, b))

	case inst.IsLoad():
		addr := m.readReg(inst.Rs1) + uint64(inst.Imm)
		size := inst.MemBytes()
		m.Last.MemAddr, m.Last.MemSize = addr, size
		if m.UserMode && !m.Mem.UserAccessOK(addr, size) {
			m.Retired++
			return m.fault(isa.FaultKernelLoad, addr)
		}
		m.writeReg(inst.Rd, m.Mem.Read(addr, size))

	case inst.IsStore():
		addr := m.readReg(inst.Rs1) + uint64(inst.Imm)
		size := inst.MemBytes()
		m.Last.MemAddr, m.Last.MemSize, m.Last.IsStore = addr, size, true
		if m.UserMode && !m.Mem.UserAccessOK(addr, size) {
			m.Retired++
			return m.fault(isa.FaultKernelStore, addr)
		}
		m.Mem.Write(addr, size, m.readReg(inst.Rs2))

	case inst.IsCondBranch():
		if isa.EvalBranch(inst.Op, m.readReg(inst.Rs1), m.readReg(inst.Rs2)) {
			next = uint64(inst.Imm)
		}

	case inst.Op == isa.OpJal:
		m.writeReg(inst.Rd, next)
		next = uint64(inst.Imm)

	case inst.Op == isa.OpJalr:
		target := (m.readReg(inst.Rs1) + uint64(inst.Imm)) &^ 1
		m.writeReg(inst.Rd, next)
		next = target

	case inst.Op == isa.OpRdcycle:
		// Functional model: no cycles; expose retired-instruction count.
		m.writeReg(inst.Rd, m.Retired)

	case inst.Op == isa.OpRdmsr:
		msr := uint16(inst.Imm)
		if msr >= isa.NumMSR {
			m.Retired++
			return m.fault(isa.FaultPrivilegeMSR, uint64(msr))
		}
		if m.UserMode && isa.PrivilegedMSR(msr) {
			m.Retired++
			return m.fault(isa.FaultPrivilegeMSR, uint64(msr))
		}
		m.writeReg(inst.Rd, m.MSR[msr])

	case inst.Op == isa.OpWrmsr:
		msr := uint16(inst.Imm)
		if msr >= isa.NumMSR || (m.UserMode && isa.PrivilegedMSR(msr)) {
			m.Retired++
			return m.fault(isa.FaultPrivilegeMSR, uint64(msr))
		}
		m.MSR[msr] = m.readReg(inst.Rs1)

	case inst.Op == isa.OpClflush, inst.Op == isa.OpFence,
		inst.Op == isa.OpSpecOff, inst.Op == isa.OpSpecOn,
		inst.Op == isa.OpNop:
		// No architectural effect.

	case inst.Op == isa.OpHalt:
		m.Halted = true
		m.Retired++
		return nil

	default:
		return fmt.Errorf("emu: invalid opcode at pc=%#x", m.PC)
	}

	m.Retired++
	m.Last.Taken = next != m.PC+isa.InstBytes
	m.PC = next
	return nil
}

// Run executes until HALT or maxInsts instructions, whichever comes first.
// It returns an error for fatal simulation errors; exceeding maxInsts
// without halting is reported as an error so runaway programs are caught.
//
//ndavet:allow deadlint the run-to-halt oracle that tests compare every timing core's final state against
func (m *Machine) Run(maxInsts uint64) error {
	for !m.Halted {
		if m.Retired >= maxInsts {
			return fmt.Errorf("emu: exceeded %d instructions without halting", maxInsts)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunN executes at most n instructions (no halt required); used by sampling
// methodologies that measure fixed instruction windows.
func (m *Machine) RunN(n uint64) error {
	target := m.Retired + n
	for !m.Halted && m.Retired < target {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
