// Package isa defines the instruction set architecture simulated by this
// repository: a 64-bit RISC-style ISA with 32 general-purpose registers, a
// small model-specific-register (MSR) file, byte-addressed memory, and
// 4-byte instructions.
//
// The ISA is deliberately minimal but carries every instruction *class* that
// the NDA propagation policies distinguish (Weisse et al., MICRO 2019):
//
//   - loads and load-like operations (LD/LW/LBU and RDMSR), which under NDA
//     may be marked unsafe and restricted from waking dependents;
//   - stores, whose unresolved addresses act as speculation guards;
//   - conditional branches and indirect jumps (JAL/JALR), the steering
//     points of control-steering attacks;
//   - CLFLUSH and RDCYCLE, which attack proofs-of-concept use to prime and
//     probe timing covert channels;
//   - FENCE, a full serialization barrier used by software mitigations.
//
// Instructions are represented as structs rather than encoded words; the
// simulator is a micro-architecture model, not a binary-compatible CPU.
package isa

import (
	"fmt"
	"strconv"
)

// Reg names a general-purpose register x0..x31. x0 is hardwired to zero:
// reads return 0 and writes are discarded, as in RISC-V.
type Reg uint8

// NumGPR is the number of architectural general-purpose registers.
const NumGPR = 32

// Conventional register roles used by the assembler and code generators.
const (
	RegZero Reg = 0 // hardwired zero
	RegRA   Reg = 1 // return address (link register for calls)
	RegSP   Reg = 2 // stack pointer
	RegGP   Reg = 3 // global pointer
	RegTP   Reg = 4 // thread pointer
	RegT0   Reg = 5 // temporaries t0..t2 = x5..x7
	RegT1   Reg = 6
	RegT2   Reg = 7
	RegS0   Reg = 8 // saved s0..s1 = x8..x9
	RegS1   Reg = 9
	RegA0   Reg = 10 // arguments/results a0..a7 = x10..x17
	RegA1   Reg = 11
	RegA2   Reg = 12
	RegA3   Reg = 13
	RegA4   Reg = 14
	RegA5   Reg = 15
	RegA6   Reg = 16
	RegA7   Reg = 17
	RegS2   Reg = 18 // saved s2..s11 = x18..x27
	RegS3   Reg = 19
	RegS4   Reg = 20
	RegS5   Reg = 21
	RegS6   Reg = 22
	RegS7   Reg = 23
	RegS8   Reg = 24
	RegS9   Reg = 25
	RegS10  Reg = 26
	RegS11  Reg = 27
	RegT3   Reg = 28 // temporaries t3..t6 = x28..x31
	RegT4   Reg = 29
	RegT5   Reg = 30
	RegT6   Reg = 31
)

// String returns the canonical xN name of the register.
func (r Reg) String() string { return fmt.Sprintf("x%d", uint8(r)) }

// MSR numbers. The MSR file stands in for the "special registers" of the
// paper's threat model (§4.3): AVX state abused by LazyFP and the
// model-specific registers abused by Meltdown v3a. RDMSR/WRMSR address this
// file by immediate.
const (
	MSRTrapHandler uint16 = 0x00 // PC of the fault handler; 0 = fault halts the machine
	MSRTrapCause   uint16 = 0x01 // cause of the last fault (FaultKind)
	MSRTrapAddr    uint16 = 0x02 // faulting address or PC of the last fault
	MSRScratch     uint16 = 0x03 // scratch register for software use
	MSRSecretKey   uint16 = 0x10 // a privileged secret (the LazyFP/v3a analogue)
	NumMSR                = 0x20
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. Register-register ALU ops read Rs1 and Rs2 and write Rd.
// Immediate ALU ops read Rs1 and Imm. Loads read memory at Rs1+Imm into Rd.
// Stores write Rs2 to memory at Rs1+Imm. Conditional branches compare Rs1
// with Rs2 and jump to the absolute address Imm (the assembler resolves
// labels to absolute byte addresses).
const (
	OpInvalid Op = iota // unknown opcode; stalls dispatch if fetched on a wrong path

	// ALU register-register.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt  // Rd = (int64(Rs1) < int64(Rs2)) ? 1 : 0
	OpSltu // Rd = (Rs1 < Rs2) ? 1 : 0
	OpMul
	OpDiv // signed; division by zero yields -1 (all ones), as in RISC-V
	OpRem // signed; remainder by zero yields Rs1

	// ALU register-immediate.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpSltiu
	OpLui // Rd = Imm (full 64-bit immediate load; the assembler's "li")

	// Memory.
	OpLd  // 64-bit load
	OpLw  // 32-bit zero-extending load
	OpLbu // 8-bit zero-extending load
	OpSd  // 64-bit store
	OpSw  // 32-bit store
	OpSb  // 8-bit store

	// Control flow. Branch targets are absolute addresses in Imm.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal  // Rd = PC+4; PC = Imm. Rd=ra is a call; Rd=x0 is a plain jump.
	OpJalr // Rd = PC+4; PC = (Rs1+Imm) &^ 1. Rs1=ra,Rd=x0 is a return.

	// System.
	OpRdcycle // Rd = current cycle count (rdtscp analogue; quasi-serializing)
	OpRdmsr   // Rd = MSR[Imm]; load-like for NDA purposes; privileged MSRs fault in user mode
	OpWrmsr   // MSR[Imm] = Rs1
	OpClflush // flush the cache line containing Rs1+Imm from the whole hierarchy
	OpFence   // full barrier: issues only when all older instructions completed
	OpSpecOff // disable speculative fetch past this point until OpSpecOn retires (§8, Listing 4)
	OpSpecOn  // re-enable speculation
	OpNop
	OpHalt // stop the machine

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpSlt: "slt", OpSltu: "sltu",
	OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSrai: "srai", OpSlti: "slti", OpSltiu: "sltiu",
	OpLui: "li",
	OpLd:  "ld", OpLw: "lw", OpLbu: "lbu", OpSd: "sd", OpSw: "sw", OpSb: "sb",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpBltu: "bltu", OpBgeu: "bgeu",
	OpJal: "jal", OpJalr: "jalr",
	OpRdcycle: "rdcycle", OpRdmsr: "rdmsr", OpWrmsr: "wrmsr",
	OpClflush: "clflush", OpFence: "fence",
	OpSpecOff: "specoff", OpSpecOn: "specon",
	OpNop: "nop", OpHalt: "halt",
}

// opOperands spells each opcode's operands in assembler text, one letter
// per comma-separated operand:
//
//	d  Rd
//	s  Rs1
//	t  Rs2
//	i  Imm, in decimal
//	a  Imm, as a hex address
//	m  Imm(Rs1), a memory operand with Imm in decimal
//
// Inst.String prints by it and the assembler parses by it, so the two
// directions cannot drift apart.
var opOperands = [numOps]string{
	OpAdd: "dst", OpSub: "dst", OpAnd: "dst", OpOr: "dst", OpXor: "dst",
	OpSll: "dst", OpSrl: "dst", OpSra: "dst", OpSlt: "dst", OpSltu: "dst",
	OpMul: "dst", OpDiv: "dst", OpRem: "dst",
	OpAddi: "dsi", OpAndi: "dsi", OpOri: "dsi", OpXori: "dsi",
	OpSlli: "dsi", OpSrli: "dsi", OpSrai: "dsi", OpSlti: "dsi", OpSltiu: "dsi",
	OpLui: "di",
	OpLd:  "dm", OpLw: "dm", OpLbu: "dm", OpSd: "tm", OpSw: "tm", OpSb: "tm",
	OpBeq: "sta", OpBne: "sta", OpBlt: "sta", OpBge: "sta", OpBltu: "sta", OpBgeu: "sta",
	OpJal: "da", OpJalr: "dm",
	OpRdcycle: "d", OpRdmsr: "da", OpWrmsr: "as",
	OpClflush: "m",
}

// opProps holds the properties the instruction predicates (ClassOf,
// IsLoad, IsStore, IsCondBranch, MemBytes, WritesReg, SrcRegs) read, one
// row per byte value, so that each predicate is one indexed load with no
// bounds check. Rows past numOps, and OpInvalid's, are zero: class other, no
// sources, no flags.
var opProps = [256]opProp{
	OpAdd: rrProp, OpSub: rrProp, OpAnd: rrProp, OpOr: rrProp, OpXor: rrProp,
	OpSll: rrProp, OpSrl: rrProp, OpSra: rrProp, OpSlt: rrProp, OpSltu: rrProp,
	OpMul: rrProp, OpDiv: rrProp, OpRem: rrProp,
	OpAddi: riProp, OpAndi: riProp, OpOri: riProp, OpXori: riProp,
	OpSlli: riProp, OpSrli: riProp, OpSrai: riProp, OpSlti: riProp, OpSltiu: riProp,
	OpLui: {flags: propWritesRd},
	OpLd:  ld(8), OpLw: ld(4), OpLbu: ld(1),
	OpSd: st(8), OpSw: st(4), OpSb: st(1),
	OpBeq: brProp, OpBne: brProp, OpBlt: brProp,
	OpBge: brProp, OpBltu: brProp, OpBgeu: brProp,
	OpJal:     {flags: propWritesRd},
	OpJalr:    {class: ClassBranch, srcs: 1, srcMask: [2]Reg{0xFF, 0}, flags: propWritesRd},
	OpRdcycle: {flags: propWritesRd},
	OpRdmsr:   {class: ClassLoad, flags: propWritesRd},
	OpWrmsr:   {srcs: 1, srcMask: [2]Reg{0xFF, 0}},
	OpClflush: {srcs: 1, srcMask: [2]Reg{0xFF, 0}},
}

// opProp is one opcode's row of opProps.
type opProp struct {
	class Class
	srcs  uint8 // registers read: 0, 1 (Rs1) or 2 (Rs1 and Rs2)
	// srcMask keeps the register fields SrcRegs reports (0xFF) and zeroes
	// the ones the opcode does not read.
	srcMask  [2]Reg
	flags    uint8
	memBytes uint8 // a load's or store's access width
}

// opProp flags.
const (
	propLoad       = 1 << iota // reads data memory (not RDMSR)
	propStore                  // writes data memory
	propCondBranch             // conditional branch
	propWritesRd               // writes Rd (unless Rd is x0)
)

// ld and st are the rows of a load and a store of the given width.
func ld(bytes uint8) opProp {
	return opProp{class: ClassLoad, srcs: 1, srcMask: [2]Reg{0xFF, 0}, flags: propLoad | propWritesRd, memBytes: bytes}
}

func st(bytes uint8) opProp {
	return opProp{class: ClassStore, srcs: 2, srcMask: [2]Reg{0xFF, 0xFF}, flags: propStore, memBytes: bytes}
}

// The other common rows of opProps.
var (
	rrProp = opProp{srcs: 2, srcMask: [2]Reg{0xFF, 0xFF}, flags: propWritesRd}
	riProp = opProp{srcs: 1, srcMask: [2]Reg{0xFF, 0}, flags: propWritesRd}
	brProp = opProp{class: ClassBranch, srcs: 2, srcMask: [2]Reg{0xFF, 0xFF}, flags: propCondBranch}
)

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Operands returns the opcode's operand spelling (see opOperands): "" for
// an opcode that takes none or lies outside the table.
func (o Op) Operands() string {
	if int(o) < len(opOperands) {
		return opOperands[o]
	}
	return ""
}

// Valid reports whether o is a defined opcode other than OpInvalid.
func (o Op) Valid() bool { return o > OpInvalid && o < numOps }

// InstBytes is the architectural size of one instruction.
const InstBytes = 4

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// Class partitions opcodes into the categories the NDA policies distinguish.
type Class uint8

const (
	ClassOther  Class = iota // ALU, fences, system ops with no special role
	ClassLoad                // memory loads and load-like ops (RDMSR): §5.2/§5.3
	ClassStore               // memory stores: unresolved addresses guard younger loads
	ClassBranch              // conditional branches and indirect jumps: steering points
)

// ClassOf returns the NDA class of the instruction. Direct unconditional
// jumps (JAL) are ClassOther: their target is architecturally determined at
// decode, so they are never unresolved and cannot be mis-steered. JALR is a
// branch (indirect target predicted via BTB/RAS). RDMSR is load-like per
// §4.3 of the paper.
func ClassOf(i Inst) Class { return i.Op.Class() }

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool { return i.Op.IsLoad() }

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool { return i.Op.IsStore() }

// MemBytes returns the access width of a load or store, or 0.
func (i Inst) MemBytes() int { return i.Op.MemBytes() }

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool { return i.Op.IsCondBranch() }

// The opcode properties behind the Inst predicates above, for a caller
// that holds the instruction in place: reading its Op does not copy the
// whole Inst, as a call on an Inst value does.

// Class returns the opcode's NDA class (see ClassOf).
func (o Op) Class() Class { return opProps[o].class }

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return opProps[o].flags&propLoad != 0 }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return opProps[o].flags&propStore != 0 }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return opProps[o].flags&propCondBranch != 0 }

// MemBytes returns the access width of a load or store opcode, or 0.
func (o Op) MemBytes() int { return int(opProps[o].memBytes) }

// IsIndirect reports whether the instruction's target comes from a register.
func (i Inst) IsIndirect() bool { return i.Op == OpJalr }

// IsCall reports whether the instruction is a call by convention (writes ra).
func (i Inst) IsCall() bool { return (i.Op == OpJal || i.Op == OpJalr) && i.Rd == RegRA }

// IsReturn reports whether the instruction is a return by convention
// (jalr x0, 0(ra)).
func (i Inst) IsReturn() bool { return i.Op == OpJalr && i.Rd == RegZero && i.Rs1 == RegRA }

// IsControl reports whether the instruction can redirect fetch.
func (i Inst) IsControl() bool { return i.IsCondBranch() || i.Op == OpJal || i.Op == OpJalr }

// WritesReg reports whether the instruction produces a GPR result, and which.
// Writes to x0 are reported as no-writes.
func (i Inst) WritesReg() (Reg, bool) {
	if opProps[i.Op].flags&propWritesRd != 0 && i.Rd != RegZero {
		return i.Rd, true
	}
	return 0, false
}

// SrcRegs returns the source registers the instruction reads, Rs1 first:
// for a store the address base, then the data. Reads of x0 are included
// (they are always ready and read as zero); an unread slot is x0.
func (i Inst) SrcRegs() (srcs [2]Reg, n int) {
	srcs[0], srcs[1] = i.ReadRegs()
	return srcs, int(opProps[i.Op].srcs)
}

// ReadRegs is SrcRegs as two registers and no count, for a caller to whom
// x0 is no source: Rs1 and Rs2, each replaced by x0 if the instruction
// does not read it. Unlike SrcRegs's array, the pair stays in registers.
func (i Inst) ReadRegs() (rs1, rs2 Reg) {
	m := opProps[i.Op].srcMask
	return i.Rs1 & m[0], i.Rs2 & m[1]
}

// HasSideEffects reports whether the op touches state beyond its destination
// register (memory, MSRs, caches, or control flow).
func (i Inst) HasSideEffects() bool {
	return i.IsStore() || i.IsControl() || i.Op == OpWrmsr || i.Op == OpClflush ||
		i.Op == OpHalt || i.Op == OpSpecOff || i.Op == OpSpecOn
}

// String renders the instruction in assembler syntax, operands spelled as
// Op.Operands says. The assembler reads every such line back to the same
// instruction.
func (i Inst) String() string {
	spelling := i.Op.Operands()
	b := make([]byte, 0, 32)
	b = append(b, i.Op.String()...)
	for k := 0; k < len(spelling); k++ {
		if k == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch spelling[k] {
		case 'd':
			b = appendReg(b, i.Rd)
		case 's':
			b = appendReg(b, i.Rs1)
		case 't':
			b = appendReg(b, i.Rs2)
		case 'i':
			b = strconv.AppendInt(b, i.Imm, 10)
		case 'a':
			b = strconv.AppendUint(append(b, "0x"...), uint64(i.Imm), 16)
		case 'm':
			b = strconv.AppendInt(b, i.Imm, 10)
			b = append(appendReg(append(b, '('), i.Rs1), ')')
		}
	}
	return string(b)
}

func appendReg(b []byte, r Reg) []byte {
	return strconv.AppendUint(append(b, 'x'), uint64(r), 10)
}
