package asm

import (
	"strings"
	"testing"

	"nda/internal/isa"
)

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
        .text
main:   li   t0, 123
        addi t1, t0, -1
        add  t2, t0, t1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 4 {
		t.Fatalf("got %d instructions", len(p.Insts))
	}
	if p.Entry != p.TextBase {
		t.Errorf("entry = %#x, want text base %#x", p.Entry, p.TextBase)
	}
	if p.Insts[0].Op != isa.OpLui || p.Insts[0].Imm != 123 || p.Insts[0].Rd != isa.RegT0 {
		t.Errorf("li lowered to %+v", p.Insts[0])
	}
	if p.Insts[1].Imm != -1 {
		t.Errorf("negative immediate = %d", p.Insts[1].Imm)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p, err := Assemble(`
main:   li   t0, 10
loop:   addi t0, t0, -1
        bne  t0, zero, loop
        beq  t0, zero, done
        nop
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	loopAddr := p.MustSymbol("loop")
	if loopAddr != p.TextBase+4 {
		t.Errorf("loop = %#x", loopAddr)
	}
	if uint64(p.Insts[2].Imm) != loopAddr {
		t.Errorf("backward branch target = %#x", p.Insts[2].Imm)
	}
	if uint64(p.Insts[3].Imm) != p.MustSymbol("done") {
		t.Errorf("forward branch target = %#x", p.Insts[3].Imm)
	}
}

func TestCallRetPseudoOps(t *testing.T) {
	p, err := Assemble(`
main:   call func
        halt
func:   ret
`)
	if err != nil {
		t.Fatal(err)
	}
	call := p.Insts[0]
	if call.Op != isa.OpJal || call.Rd != isa.RegRA || uint64(call.Imm) != p.MustSymbol("func") {
		t.Errorf("call = %+v", call)
	}
	if !call.IsCall() {
		t.Error("call must satisfy IsCall")
	}
	ret := p.Insts[2]
	if !ret.IsReturn() {
		t.Errorf("ret = %+v", ret)
	}
}

func TestMemoryOperands(t *testing.T) {
	p, err := Assemble(`
main:   ld  t0, 16(sp)
        sd  t0, -8(s0)
        lbu t1, (a0)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Rs1 != isa.RegSP || p.Insts[0].Imm != 16 {
		t.Errorf("ld = %+v", p.Insts[0])
	}
	if p.Insts[1].Rs2 != isa.RegT0 || p.Insts[1].Imm != -8 {
		t.Errorf("sd = %+v", p.Insts[1])
	}
	if p.Insts[2].Imm != 0 || p.Insts[2].Rs1 != isa.RegA0 {
		t.Errorf("lbu = %+v", p.Insts[2])
	}
}

func TestDataSegments(t *testing.T) {
	p, err := Assemble(`
        .data
        .org 0x10000
vals:   .word64 1, 2, deadend
small:  .byte 0xAB, 'x'
str:    .asciiz "hi"
        .align 16
buf:    .space 32
after:  .byte 1
        .text
main:   halt
deadend: nop
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.MustSymbol("vals") != 0x10000 {
		t.Errorf("vals = %#x", p.MustSymbol("vals"))
	}
	seg := p.Data[0]
	if seg.Addr != 0x10000 || len(seg.Bytes) < 24 {
		t.Fatalf("segment = %+v", seg)
	}
	if seg.Bytes[0] != 1 || seg.Bytes[8] != 2 {
		t.Error(".word64 layout wrong")
	}
	// Third word64 is the forward-referenced text label.
	var w uint64
	for i := 0; i < 8; i++ {
		w |= uint64(seg.Bytes[16+i]) << (8 * i)
	}
	if w != p.MustSymbol("deadend") {
		t.Errorf("label in data = %#x, want %#x", w, p.MustSymbol("deadend"))
	}
	if seg.Bytes[24] != 0xAB || seg.Bytes[25] != 'x' {
		t.Error(".byte layout wrong")
	}
	if seg.Bytes[26] != 'h' || seg.Bytes[27] != 'i' || seg.Bytes[28] != 0 {
		t.Error(".asciiz layout wrong")
	}
	// .align 16 starts a new segment.
	if p.MustSymbol("buf")%16 != 0 {
		t.Errorf("buf not aligned: %#x", p.MustSymbol("buf"))
	}
	if p.MustSymbol("after") != p.MustSymbol("buf")+32 {
		t.Error(".space must advance the cursor")
	}
}

func TestKernelData(t *testing.T) {
	p, err := Assemble(`
        .data
        .org 0x20000
pub:    .word64 1
        .kernel
secret: .byte 42
        .user
pub2:   .byte 7
        .text
main:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	var sawKernel, sawUser int
	for _, s := range p.Data {
		if s.Kernel {
			sawKernel++
			if s.Bytes[0] != 42 {
				t.Error("kernel segment content wrong")
			}
		} else {
			sawUser++
		}
	}
	if sawKernel != 1 || sawUser != 2 {
		t.Errorf("segments: kernel=%d user=%d", sawKernel, sawUser)
	}
}

func TestSymbolArithmetic(t *testing.T) {
	p, err := Assemble(`
        .data
        .org 0x4000
tbl:    .space 64
        .text
main:   la t0, tbl+8
        li t1, tbl-4
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p.Insts[0].Imm) != 0x4008 {
		t.Errorf("tbl+8 = %#x", p.Insts[0].Imm)
	}
	if uint64(p.Insts[1].Imm) != 0x3FFC {
		t.Errorf("tbl-4 = %#x", p.Insts[1].Imm)
	}
}

func TestSystemOps(t *testing.T) {
	p, err := Assemble(`
main:   rdcycle t0
        rdmsr   t1, 0x10
        wrmsr   0x3, t1
        clflush 64(a0)
        fence
        specoff
        specon
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Op{isa.OpRdcycle, isa.OpRdmsr, isa.OpWrmsr, isa.OpClflush,
		isa.OpFence, isa.OpSpecOff, isa.OpSpecOn, isa.OpHalt}
	for i, op := range want {
		if p.Insts[i].Op != op {
			t.Errorf("inst %d = %v, want %v", i, p.Insts[i].Op, op)
		}
	}
	if p.Insts[1].Imm != 0x10 || p.Insts[2].Imm != 0x3 {
		t.Error("MSR numbers wrong")
	}
	if p.Insts[3].Imm != 64 || p.Insts[3].Rs1 != isa.RegA0 {
		t.Error("clflush operand wrong")
	}
}

func TestJumpVariants(t *testing.T) {
	p, err := Assemble(`
main:   j     skip
        nop
skip:   jal   s0, main
        jalr  t0, 8(a1)
        jr    a2
        callr a3
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Op != isa.OpJal || p.Insts[0].Rd != isa.RegZero {
		t.Errorf("j = %+v", p.Insts[0])
	}
	if p.Insts[2].Rd != isa.RegS0 {
		t.Errorf("jal = %+v", p.Insts[2])
	}
	if p.Insts[3].Imm != 8 || p.Insts[3].Rs1 != isa.RegA1 || p.Insts[3].Rd != isa.RegT0 {
		t.Errorf("jalr = %+v", p.Insts[3])
	}
	if p.Insts[4].Rd != isa.RegZero || p.Insts[4].Rs1 != isa.RegA2 {
		t.Errorf("jr = %+v", p.Insts[4])
	}
	if !p.Insts[5].IsCall() {
		t.Errorf("callr = %+v", p.Insts[5])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"main: halt\nmain: nop", "duplicate label"},
		{"bogus t0, t1", "unknown mnemonic"},
		{"add t0, t1", "want 3 operands"},
		{"li t9, 5", "bad register"},
		{"ld t0, 8[sp]", "bad memory operand"},
		{"beq t0, t1, nowhere", "undefined symbol"},
		{".bogus 3", "unknown directive"},
		{".text\n.byte 1", "outside .data"},
		{"nop\n.org 0x5000", ".org in .text must precede"},
		{".data\n.align 3", "power of two"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

// TestLocationForwardReference: a directive that moves the location counter
// cannot take its value from a later label. Pass 1 would place every label
// after it at the address a 0 operand gives, pass 2 would emit at the real
// one: here x would read 0 while its byte lands at 0x3000.
func TestLocationForwardReference(t *testing.T) {
	for _, c := range []struct{ src, line string }{
		{"main: la t0, x\nhalt\n.data\n.org fwd\nx: .byte 7\n.org 0x3000\nfwd: .byte 1", "line 4"},
		{".data\n.org 0x100\n.space n\ny: .byte 1\nn: .byte 2", "line 3"},
		{".org start\nstart: halt", "line 1"},
		{".data\n.org 0x100\n.space n+8\n.org fwd\ny: .byte 1\nn: .byte 2\nfwd: .byte 3", "line 3"},
	} {
		_, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.line+": ") ||
			!strings.Contains(err.Error(), "cannot depend on a later label") {
			t.Errorf("Assemble(%q) error = %v, want a forward-reference error at %s", c.src, err, c.line)
		}
	}
	// Backward references still place labels.
	p := MustAssemble("main: la t0, x\nhalt\n.data\n.org 0x3000\nbase: .byte 1\n.org base+8\nx: .byte 7")
	if x := p.MustSymbol("x"); x != 0x3008 || p.Insts[0].Imm != 0x3008 {
		t.Errorf("x = %#x, la loads %#x; want 0x3008", x, p.Insts[0].Imm)
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus x")
	aerr, ok := err.(*Error)
	if !ok || aerr.Line != 3 {
		t.Errorf("error = %v, want line 3", err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	p, err := Assemble("main:\thalt # trailing\n// whole line\n   # another\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 1 {
		t.Errorf("got %d instructions", len(p.Insts))
	}
}

func TestEntryStart(t *testing.T) {
	p := MustAssemble("_start: nop\nhalt")
	if p.Entry != p.TextBase {
		t.Error("_start entry")
	}
	p = MustAssemble("pad: nop\nmain: halt")
	if p.Entry != p.TextBase+4 {
		t.Error("main entry must win")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble must panic on bad source")
		}
	}()
	MustAssemble("bogus")
}

func TestRegisterAliases(t *testing.T) {
	p := MustAssemble("main: add x5, t0, x31\nhalt")
	i := p.Insts[0]
	if i.Rd != 5 || i.Rs1 != 5 || i.Rs2 != 31 {
		t.Errorf("aliases = %+v", i)
	}
}

func TestMoreErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"add t9, t1, t2", "bad register"},
		{"add t0, t9, t2", "bad register"},
		{"add t0, t1, t9", "bad register"},
		{"addi t0, t9, 1", "bad register"},
		{"addi t0, t1, bogus", "undefined symbol"},
		{"ld t9, 8(sp)", "bad register"},
		{"ld t0, 8(t9)", "bad register"},
		{"sd t9, 8(sp)", "bad register"},
		{"beq t9, t0, main", "bad register"},
		{"beq t0, t9, main", "bad register"},
		{"li t9, 1", "bad register"},
		{"mv t9, t0", "bad register"},
		{"mv t0, t9", "bad register"},
		{"j 8(sp)", "bad value"},
		{"jal t9, main", "bad register"},
		{"callr t9", "bad register"},
		{"jr t9", "bad register"},
		{"jalr t9, (sp)", "bad register"},
		{"jalr t0, 8[t1]", "bad memory operand"},
		{"rdcycle t9", "bad register"},
		{"rdmsr t9, 1", "bad register"},
		{"rdmsr t0, zork", "undefined symbol"},
		{"wrmsr zork, t0", "undefined symbol"},
		{"wrmsr 1, t9", "bad register"},
		{"clflush t0", "bad memory operand"},
		{"fence extra", "want 0 operands"},
		{"li t0", "want 2 operands"},
		{".org zork", "undefined symbol"},
		{".data\n.space zork", "undefined symbol"},
		{".data\n.byte", "empty value list"},
		{".data\n.byte 1+zork", "bad offset"},
		{".data\n.ascii 5", "bad string"},
		{".data\n.byte 'ab'", "bad character literal"},
		{"main: ld t0, zork(t1)", "undefined symbol"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestValueForms(t *testing.T) {
	p := MustAssemble(`
        .data
        .org 0x100
c:      .byte 'A'
        .text
main:   li t0, 'z'
        li t1, -0x10
        li t2, 0xFFFFFFFFFFFFFFFF
        halt
`)
	if p.Insts[0].Imm != 'z' {
		t.Errorf("char literal = %d", p.Insts[0].Imm)
	}
	if p.Insts[1].Imm != -16 {
		t.Errorf("negative hex = %d", p.Insts[1].Imm)
	}
	if uint64(p.Insts[2].Imm) != ^uint64(0) {
		t.Errorf("max u64 = %#x", uint64(p.Insts[2].Imm))
	}
	if p.Data[0].Bytes[0] != 'A' {
		t.Error(".byte char literal")
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	p := MustAssemble("a: b: main: halt")
	if p.MustSymbol("a") != p.MustSymbol("b") || p.MustSymbol("b") != p.MustSymbol("main") {
		t.Error("stacked labels must share an address")
	}
}

func TestWord32Directive(t *testing.T) {
	p := MustAssemble(`
        .data
        .org 0x400
w:      .word32 0x11223344, 0x55667788
        .text
main:   halt
`)
	b := p.Data[0].Bytes
	if b[0] != 0x44 || b[3] != 0x11 || b[4] != 0x88 || b[7] != 0x55 {
		t.Errorf("word32 layout = % x", b)
	}
}
