package isa

import "testing"

// The predicates below are reference copies of the per-opcode switches the
// opProps table replaced. TestOpPropsMatchSwitches holds the table to them
// for every byte value, so a flipped table cell fails it.

func refClassOf(i Inst) Class {
	switch i.Op {
	case OpLd, OpLw, OpLbu, OpRdmsr:
		return ClassLoad
	case OpSd, OpSw, OpSb:
		return ClassStore
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu, OpJalr:
		return ClassBranch
	default:
		return ClassOther
	}
}

func refIsLoad(i Inst) bool { return i.Op == OpLd || i.Op == OpLw || i.Op == OpLbu }

func refIsStore(i Inst) bool { return i.Op == OpSd || i.Op == OpSw || i.Op == OpSb }

func refMemBytes(i Inst) int {
	switch i.Op {
	case OpLd, OpSd:
		return 8
	case OpLw, OpSw:
		return 4
	case OpLbu, OpSb:
		return 1
	}
	return 0
}

func refIsCondBranch(i Inst) bool {
	switch i.Op {
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return true
	}
	return false
}

func refWritesReg(i Inst) (Reg, bool) {
	switch i.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpSll, OpSrl, OpSra, OpSlt, OpSltu,
		OpMul, OpDiv, OpRem,
		OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti, OpSltiu, OpLui,
		OpLd, OpLw, OpLbu, OpJal, OpJalr, OpRdcycle, OpRdmsr:
		if i.Rd != RegZero {
			return i.Rd, true
		}
	}
	return 0, false
}

func refSrcRegs(i Inst) (srcs [2]Reg, n int) {
	switch i.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpSll, OpSrl, OpSra, OpSlt, OpSltu,
		OpMul, OpDiv, OpRem,
		OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		srcs[0], srcs[1] = i.Rs1, i.Rs2
		return srcs, 2
	case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti, OpSltiu,
		OpLd, OpLw, OpLbu, OpJalr, OpWrmsr, OpClflush:
		srcs[0] = i.Rs1
		return srcs, 1
	case OpSd, OpSw, OpSb:
		srcs[0], srcs[1] = i.Rs1, i.Rs2 // address base, data
		return srcs, 2
	}
	return srcs, 0
}

// TestOpPropsMatchSwitches checks every predicate opProps serves on every
// Op value 0–255, the undefined ones included, with register fields that
// tell each operand apart (and x0 as Rd, which WritesReg reports as no
// write).
func TestOpPropsMatchSwitches(t *testing.T) {
	regs := []struct{ rd, rs1, rs2 Reg }{
		{7, 12, 29},
		{RegZero, 31, 1},
		{RegRA, RegZero, RegZero},
	}
	for op := 0; op < 256; op++ {
		for _, r := range regs {
			i := Inst{Op: Op(op), Rd: r.rd, Rs1: r.rs1, Rs2: r.rs2, Imm: 16}
			if got, want := ClassOf(i), refClassOf(i); got != want {
				t.Errorf("ClassOf(%v) = %d, want %d", i, got, want)
			}
			if got, want := i.IsLoad(), refIsLoad(i); got != want {
				t.Errorf("IsLoad(%v) = %v, want %v", i, got, want)
			}
			if got, want := i.IsStore(), refIsStore(i); got != want {
				t.Errorf("IsStore(%v) = %v, want %v", i, got, want)
			}
			if got, want := i.IsCondBranch(), refIsCondBranch(i); got != want {
				t.Errorf("IsCondBranch(%v) = %v, want %v", i, got, want)
			}
			if got, want := i.MemBytes(), refMemBytes(i); got != want {
				t.Errorf("MemBytes(%v) = %d, want %d", i, got, want)
			}
			gr, gok := i.WritesReg()
			wr, wok := refWritesReg(i)
			if gr != wr || gok != wok {
				t.Errorf("WritesReg(%v) = %v, %v, want %v, %v", i, gr, gok, wr, wok)
			}
			gs, gn := i.SrcRegs()
			ws, wn := refSrcRegs(i)
			if gs != ws || gn != wn {
				t.Errorf("SrcRegs(%v) = %v, %d, want %v, %d", i, gs, gn, ws, wn)
			}
		}
	}
}
