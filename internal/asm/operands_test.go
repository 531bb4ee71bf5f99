package asm

import (
	"slices"
	"strings"
	"testing"

	"nda/internal/isa"
)

// TestOperandTable pins isa's operand table in both directions. Every
// valid opcode, with distinct values in exactly the fields its spelling
// names, prints with Inst.String and assembles back to itself; and the
// registers the spelling names are the ones the opcode reads and writes.
func TestOperandTable(t *testing.T) {
	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		in := isa.Inst{Op: op}
		var rs1, rs2 bool
		for _, c := range op.Operands() {
			switch c {
			case 'd':
				in.Rd = 5
			case 's':
				in.Rs1, rs1 = 6, true
			case 't':
				in.Rs2, rs2 = 7, true
			case 'i':
				in.Imm = -12345
			case 'a':
				in.Imm = 0xfedc
			case 'm':
				in.Rs1, in.Imm, rs1 = 6, -24, true
			default:
				t.Fatalf("%s: unknown operand letter %q", op, c)
			}
		}
		text := in.String()
		p, err := Assemble(text)
		if err != nil {
			t.Fatalf("%s: %q does not assemble: %v", op, text, err)
		}
		if len(p.Insts) != 1 || p.Insts[0] != in {
			t.Errorf("%s: %q assembles to %+v, want %+v", op, text, p.Insts, in)
		}

		if rd, ok := in.WritesReg(); ok != strings.ContainsRune(op.Operands(), 'd') || ok && rd != in.Rd {
			t.Errorf("%s: spelling %q disagrees with WritesReg", op, op.Operands())
		}
		var want []isa.Reg
		if rs1 {
			want = append(want, in.Rs1)
		}
		if rs2 {
			want = append(want, in.Rs2)
		}
		if srcs, n := in.SrcRegs(); !slices.Equal(srcs[:n], want) {
			t.Errorf("%s: spelling %q names sources %v, SrcRegs reads %v", op, op.Operands(), want, srcs[:n])
		}
	}

	pseudo := map[string]isa.Inst{
		"la t0, 0x40": {Op: isa.OpLui, Rd: isa.RegT0, Imm: 0x40},
		"mv t0, t1":   {Op: isa.OpAddi, Rd: isa.RegT0, Rs1: isa.RegT1},
		"j 0x2000":    {Op: isa.OpJal, Rd: isa.RegZero, Imm: 0x2000},
		"call 0x2000": {Op: isa.OpJal, Rd: isa.RegRA, Imm: 0x2000},
		"callr t1":    {Op: isa.OpJalr, Rd: isa.RegRA, Rs1: isa.RegT1},
		"jr t1":       {Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegT1},
		"ret":         {Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA},
	}
	for src, want := range pseudo {
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(p.Insts) != 1 || p.Insts[0] != want {
			t.Errorf("%q assembles to %+v, want %+v", src, p.Insts, want)
		}
	}

	for _, op := range []isa.Op{isa.OpInvalid, 250} {
		if got := (isa.Inst{Op: op, Rd: 5, Imm: 9}).String(); got != op.String() {
			t.Errorf("Inst{Op: %d}.String() = %q, want %q", op, got, op.String())
		}
	}
	if got := isa.Op(250).String(); got != "op(250)" {
		t.Errorf("Op(250).String() = %q", got)
	}
	if _, err := Assemble("invalid"); err == nil {
		t.Error(`"invalid" assembled; OpInvalid has no mnemonic`)
	}
}
