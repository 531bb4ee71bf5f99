package asm

import (
	"strings"
	"testing"

	"nda/internal/isa"
	"nda/internal/workload"
)

func roundTrip(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	src := Disassemble(p)
	q, err := Assemble(src)
	if err != nil {
		t.Fatalf("reassembly failed: %v\nsource:\n%s", err, firstLines(src, 40))
	}
	return q
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func assertSameProgram(t *testing.T, p, q *isa.Program) {
	t.Helper()
	if q.TextBase != p.TextBase || q.Entry != p.Entry {
		t.Fatalf("base/entry: got %#x/%#x, want %#x/%#x", q.TextBase, q.Entry, p.TextBase, p.Entry)
	}
	if len(q.Insts) != len(p.Insts) {
		t.Fatalf("instruction count: got %d, want %d", len(q.Insts), len(p.Insts))
	}
	for i := range p.Insts {
		if p.Insts[i] != q.Insts[i] {
			t.Fatalf("inst %d: got %+v, want %+v", i, q.Insts[i], p.Insts[i])
		}
	}
	// Compare data as an address->byte map (segment boundaries may differ).
	want := map[uint64]byte{}
	wantKernel := map[uint64]bool{}
	for _, s := range p.Data {
		for i, b := range s.Bytes {
			want[s.Addr+uint64(i)] = b
			wantKernel[s.Addr+uint64(i)] = s.Kernel
		}
	}
	got := map[uint64]byte{}
	gotKernel := map[uint64]bool{}
	for _, s := range q.Data {
		for i, b := range s.Bytes {
			got[s.Addr+uint64(i)] = b
			gotKernel[s.Addr+uint64(i)] = s.Kernel
		}
	}
	if len(got) != len(want) {
		t.Fatalf("data bytes: got %d, want %d", len(got), len(want))
	}
	for a, b := range want {
		if got[a] != b {
			t.Fatalf("data[%#x] = %#x, want %#x", a, got[a], b)
		}
		if gotKernel[a] != wantKernel[a] {
			t.Fatalf("data[%#x] kernel = %v, want %v", a, gotKernel[a], wantKernel[a])
		}
	}
}

func TestDisassembleRoundTripHandwritten(t *testing.T) {
	p := MustAssemble(`
        .data
        .org 0x20000
vals:   .word64 1, 0xdeadbeef
        .kernel
sec:    .byte 42
        .user
pub:    .byte 7
        .text
pad:    nop
main:   li   t0, -5
        la   s0, vals
        ld   t1, 8(s0)
        sd   t1, 16(s0)
        lbu  t2, (s0)
        sb   t2, 1(s0)
        lw   t3, 4(s0)
        sw   t3, 4(s0)
        beq  t1, t2, main
        bltu t1, t2, main
        jal  s1, main
        call main
        jalr t0, 4(s0)
        jr   ra
        ret
        rdcycle t4
        rdmsr t5, 0x3
        wrmsr 0x3, t5
        clflush 8(s0)
        fence
        specoff
        specon
        addi t6, t6, -1
        srai t6, t6, 3
        div  t6, t6, t5
        halt
`)
	assertSameProgram(t, p, roundTrip(t, p))
}

func TestDisassembleRoundTripRandom(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := workload.Random(seed, 150)
		assertSameProgram(t, p, roundTrip(t, p))
	}
}

func TestDisassembleRoundTripWorkloads(t *testing.T) {
	// Small-data proxies only: the big-table benchmarks round-trip too but
	// re-parsing megabytes of .byte directives is slow.
	for _, name := range []string{"exchange2", "xz", "x264", "povray"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name, func(t *testing.T) {
			p := s.Build(2)
			assertSameProgram(t, p, roundTrip(t, p))
		})
	}
}

func TestDisassembleReadable(t *testing.T) {
	p := MustAssemble("main: li t0, 7\nadd t1, t0, t0\nhalt")
	src := Disassemble(p)
	for _, want := range []string{".text", ".org 0x1000", "main:", "li x5, 7", "add x6, x5, x5", "halt"} {
		if !strings.Contains(src, want) {
			t.Errorf("disassembly missing %q:\n%s", want, src)
		}
	}
}

// TestDisassembleEntryOffInstruction: an entry point no instruction sits
// on — the end of text, or a data label — survives the round trip.
func TestDisassembleEntryOffInstruction(t *testing.T) {
	for _, c := range []struct {
		src   string
		entry uint64
	}{
		{"nop\nmain:\n", 0x1004},
		{"nop\n.data\n.org 0x100000\nmain: .byte 1", 0x100000},
		{"_start:\n.org 0x2000\nhalt", 0x1000},
	} {
		p := MustAssemble(c.src)
		if p.Entry != c.entry {
			t.Fatalf("%q: entry %#x, want %#x", c.src, p.Entry, c.entry)
		}
		q := roundTrip(t, p)
		assertSameProgram(t, p, q)
		if again := Disassemble(q); again != Disassemble(p) {
			t.Errorf("%q: disassembly is not a fixpoint:\n%s\nthen\n%s", c.src, Disassemble(p), again)
		}
	}
}
