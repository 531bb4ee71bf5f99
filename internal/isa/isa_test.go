package isa

import (
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	for op := OpInvalid; op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if OpAdd.String() != "add" || OpJalr.String() != "jalr" {
		t.Errorf("unexpected mnemonics: %q %q", OpAdd.String(), OpJalr.String())
	}
	if Op(250).String() != "op(250)" {
		t.Errorf("out-of-range op name = %q", Op(250).String())
	}
}

func TestOpValid(t *testing.T) {
	if OpInvalid.Valid() {
		t.Error("OpInvalid must not be valid")
	}
	if !OpAdd.Valid() || !OpHalt.Valid() {
		t.Error("real ops must be valid")
	}
	if Op(200).Valid() {
		t.Error("out-of-range op must not be valid")
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		in   Inst
		want Class
	}{
		{Inst{Op: OpLd}, ClassLoad},
		{Inst{Op: OpLw}, ClassLoad},
		{Inst{Op: OpLbu}, ClassLoad},
		{Inst{Op: OpRdmsr}, ClassLoad}, // §4.3: rdmsr treated like a load
		{Inst{Op: OpSd}, ClassStore},
		{Inst{Op: OpSb}, ClassStore},
		{Inst{Op: OpBeq}, ClassBranch},
		{Inst{Op: OpJalr}, ClassBranch},
		{Inst{Op: OpJal}, ClassOther}, // direct jump: never unresolved
		{Inst{Op: OpAdd}, ClassOther},
		{Inst{Op: OpClflush}, ClassOther},
	}
	for _, c := range cases {
		if got := ClassOf(c.in); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.in.Op, got, c.want)
		}
	}
}

func TestCallReturnConventions(t *testing.T) {
	call := Inst{Op: OpJal, Rd: RegRA, Imm: 0x2000}
	if !call.IsCall() || call.IsReturn() {
		t.Error("jal ra is a call")
	}
	ret := Inst{Op: OpJalr, Rd: RegZero, Rs1: RegRA}
	if !ret.IsReturn() || ret.IsCall() {
		t.Error("jalr x0, 0(ra) is a return")
	}
	indirect := Inst{Op: OpJalr, Rd: RegRA, Rs1: RegT0}
	if !indirect.IsCall() || indirect.IsReturn() {
		t.Error("jalr ra, 0(t0) is an indirect call")
	}
}

func TestWritesRegZeroDiscarded(t *testing.T) {
	i := Inst{Op: OpAdd, Rd: RegZero, Rs1: RegT0, Rs2: RegT1}
	if _, ok := i.WritesReg(); ok {
		t.Error("writes to x0 must be discarded")
	}
	i.Rd = RegT2
	if rd, ok := i.WritesReg(); !ok || rd != RegT2 {
		t.Error("add must report its destination")
	}
	if _, ok := (Inst{Op: OpSd, Rs2: RegT0}).WritesReg(); ok {
		t.Error("stores write no register")
	}
	if _, ok := (Inst{Op: OpBeq}).WritesReg(); ok {
		t.Error("branches write no register")
	}
}

func TestSrcRegs(t *testing.T) {
	srcs, n := (Inst{Op: OpSd, Rs1: RegSP, Rs2: RegA0}).SrcRegs()
	if n != 2 || srcs[0] != RegSP || srcs[1] != RegA0 {
		t.Errorf("store sources = %v/%d", srcs, n)
	}
	_, n = (Inst{Op: OpLui}).SrcRegs()
	if n != 0 {
		t.Errorf("lui has no sources, got %d", n)
	}
	srcs, n = (Inst{Op: OpJalr, Rs1: RegT0}).SrcRegs()
	if n != 1 || srcs[0] != RegT0 {
		t.Errorf("jalr sources = %v/%d", srcs, n)
	}
}

func TestMemBytes(t *testing.T) {
	for _, c := range []struct {
		op   Op
		want int
	}{{OpLd, 8}, {OpLw, 4}, {OpLbu, 1}, {OpSd, 8}, {OpSw, 4}, {OpSb, 1}, {OpAdd, 0}} {
		if got := (Inst{Op: c.op}).MemBytes(); got != c.want {
			t.Errorf("MemBytes(%v) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, w uint64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, ^uint64(0)},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpSll, 1, 65, 2}, // shift amount masked to 6 bits
		{OpSrl, 0x8000000000000000, 63, 1},
		{OpSra, 0x8000000000000000, 63, ^uint64(0)},
		{OpSlt, ^uint64(0), 0, 1}, // -1 < 0 signed
		{OpSltu, ^uint64(0), 0, 0},
		{OpMul, 7, 6, 42},
		{OpLui, 99, 1234, 1234},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b); got != c.w {
			t.Errorf("EvalALU(%v, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.w)
		}
	}
}

func TestEvalALUDivisionEdgeCases(t *testing.T) {
	if got := EvalALU(OpDiv, 42, 0); got != ^uint64(0) {
		t.Errorf("div by zero = %#x, want all-ones", got)
	}
	if got := EvalALU(OpRem, 42, 0); got != 42 {
		t.Errorf("rem by zero = %d, want dividend", got)
	}
	minInt := uint64(1) << 63
	if got := EvalALU(OpDiv, minInt, ^uint64(0)); got != minInt {
		t.Errorf("INT64_MIN / -1 = %#x, want INT64_MIN", got)
	}
	if got := EvalALU(OpRem, minInt, ^uint64(0)); got != 0 {
		t.Errorf("INT64_MIN %% -1 = %#x, want 0", got)
	}
	if got := EvalALU(OpDiv, 7, ^uint64(0)); got != ^uint64(6) { // 7 / -1 = -7
		t.Errorf("7 / -1 = %#x, want -7", got)
	}
}

func TestEvalALUMatchesGoSemantics(t *testing.T) {
	f := func(a, b uint64) bool {
		if b == 0 || (int64(a) == -1<<63 && int64(b) == -1) {
			return true // edge cases covered above
		}
		return EvalALU(OpDiv, a, b) == uint64(int64(a)/int64(b)) &&
			EvalALU(OpRem, a, b) == uint64(int64(a)%int64(b)) &&
			EvalALU(OpAdd, a, b) == a+b &&
			EvalALU(OpXor, a, b) == a^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalBranch(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{OpBeq, 5, 5, true},
		{OpBne, 5, 5, false},
		{OpBlt, ^uint64(0), 0, true}, // -1 < 0 signed
		{OpBltu, ^uint64(0), 0, false},
		{OpBge, 0, ^uint64(0), true},
		{OpBgeu, 0, ^uint64(0), false},
	}
	for _, c := range cases {
		if got := EvalBranch(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalBranch(%v, %#x, %#x) = %v", c.op, c.a, c.b, got)
		}
	}
}

func TestEvalBranchComplementary(t *testing.T) {
	f := func(a, b uint64) bool {
		return EvalBranch(OpBeq, a, b) != EvalBranch(OpBne, a, b) &&
			EvalBranch(OpBlt, a, b) != EvalBranch(OpBge, a, b) &&
			EvalBranch(OpBltu, a, b) != EvalBranch(OpBgeu, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrivilegedMSR(t *testing.T) {
	if PrivilegedMSR(MSRTrapHandler) || PrivilegedMSR(MSRScratch) {
		t.Error("trap/scratch MSRs must be user-accessible")
	}
	if !PrivilegedMSR(MSRSecretKey) {
		t.Error("the secret key MSR must be privileged")
	}
}

func TestProgramAt(t *testing.T) {
	p := &Program{
		TextBase: 0x1000,
		Insts:    []Inst{{Op: OpNop}, {Op: OpHalt}},
	}
	if _, ok := p.At(0x0FFC); ok {
		t.Error("fetch below text must fail")
	}
	if _, ok := p.At(0x1002); ok {
		t.Error("misaligned fetch must fail")
	}
	if in, ok := p.At(0x1004); !ok || in.Op != OpHalt {
		t.Error("aligned in-range fetch must succeed")
	}
	if _, ok := p.At(0x1008); ok {
		t.Error("fetch past end must fail")
	}
	if p.End() != 0x1008 {
		t.Errorf("End = %#x", p.End())
	}
}

func TestProgramSymbols(t *testing.T) {
	p := &Program{Symbols: map[string]uint64{"buf": 0x2000}}
	if a, err := p.Symbol("buf"); err != nil || a != 0x2000 {
		t.Errorf("Symbol(buf) = %#x, %v", a, err)
	}
	if _, err := p.Symbol("nope"); err == nil {
		t.Error("undefined symbol must error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSymbol must panic on unknown name")
		}
	}()
	p.MustSymbol("nope")
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Rd: 5, Rs1: 6, Rs2: 7}, "add x5, x6, x7"},
		{Inst{Op: OpAddi, Rd: 5, Rs1: 6, Imm: -4}, "addi x5, x6, -4"},
		{Inst{Op: OpLd, Rd: 5, Rs1: 2, Imm: 16}, "ld x5, 16(x2)"},
		{Inst{Op: OpSd, Rs1: 2, Rs2: 5, Imm: 8}, "sd x5, 8(x2)"},
		{Inst{Op: OpBeq, Rs1: 5, Rs2: 6, Imm: 0x1000}, "beq x5, x6, 0x1000"},
		{Inst{Op: OpHalt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestInstPredicates(t *testing.T) {
	if !(Inst{Op: OpLd}).IsLoad() || (Inst{Op: OpSd}).IsLoad() {
		t.Error("IsLoad")
	}
	if !(Inst{Op: OpSb}).IsStore() || (Inst{Op: OpLbu}).IsStore() {
		t.Error("IsStore")
	}
	if !(Inst{Op: OpBgeu}).IsCondBranch() || (Inst{Op: OpJal}).IsCondBranch() {
		t.Error("IsCondBranch")
	}
	if !(Inst{Op: OpJalr}).IsIndirect() || (Inst{Op: OpJal}).IsIndirect() {
		t.Error("IsIndirect")
	}
	for _, op := range []Op{OpBeq, OpJal, OpJalr} {
		if !(Inst{Op: op}).IsControl() {
			t.Errorf("%v must be control", op)
		}
	}
	if (Inst{Op: OpAdd}).IsControl() {
		t.Error("add is not control")
	}
}

func TestHasSideEffects(t *testing.T) {
	effectful := []Op{OpSd, OpBeq, OpJal, OpJalr, OpWrmsr, OpClflush, OpHalt, OpSpecOff, OpSpecOn}
	for _, op := range effectful {
		if !(Inst{Op: op}).HasSideEffects() {
			t.Errorf("%v must have side effects", op)
		}
	}
	for _, op := range []Op{OpAdd, OpLd, OpRdcycle, OpNop} {
		if (Inst{Op: op}).HasSideEffects() {
			t.Errorf("%v must not have (architectural) side effects", op)
		}
	}
}

func TestRegString(t *testing.T) {
	if Reg(7).String() != "x7" {
		t.Error("Reg.String")
	}
}

func TestIsALUAndOperandB(t *testing.T) {
	for _, op := range []Op{OpAdd, OpAddi, OpLui, OpSrai, OpRem} {
		if !IsALU(op) {
			t.Errorf("%v must be ALU", op)
		}
	}
	for _, op := range []Op{OpLd, OpBeq, OpJal, OpFence, OpHalt} {
		if IsALU(op) {
			t.Errorf("%v must not be ALU", op)
		}
	}
	if ALUOperandB(Inst{Op: OpAddi, Imm: 7}, 99) != 7 {
		t.Error("immediate forms use Imm")
	}
	if ALUOperandB(Inst{Op: OpAdd, Imm: 7}, 99) != 99 {
		t.Error("register forms use rs2")
	}
}

func TestEvalPanicsOnWrongOp(t *testing.T) {
	for _, f := range []func(){
		func() { EvalALU(OpLd, 1, 2) },
		func() { EvalBranch(OpAdd, 1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFaultKindStrings(t *testing.T) {
	for f, want := range map[FaultKind]string{
		FaultNone:         "none",
		FaultKernelLoad:   "kernel-load",
		FaultKernelStore:  "kernel-store",
		FaultPrivilegeMSR: "privileged-msr",
		FaultBadFetch:     "bad-fetch",
		FaultBadOpcode:    "bad-opcode",
		FaultKind(99):     "fault(?)",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestInstStringMoreForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpLui, Rd: 5, Imm: -7}, "li x5, -7"},
		{Inst{Op: OpJal, Rd: 1, Imm: 0x2000}, "jal x1, 0x2000"},
		{Inst{Op: OpJalr, Rd: 0, Rs1: 1}, "jalr x0, 0(x1)"},
		{Inst{Op: OpRdcycle, Rd: 6}, "rdcycle x6"},
		{Inst{Op: OpRdmsr, Rd: 6, Imm: 0x10}, "rdmsr x6, 0x10"},
		{Inst{Op: OpWrmsr, Rs1: 6, Imm: 3}, "wrmsr 0x3, x6"},
		{Inst{Op: OpClflush, Rs1: 2, Imm: 64}, "clflush 64(x2)"},
		{Inst{Op: OpFence}, "fence"},
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpSlli, Rd: 5, Rs1: 6, Imm: 3}, "slli x5, x6, 3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
