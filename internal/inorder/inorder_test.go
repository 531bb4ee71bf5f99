package inorder

import (
	"fmt"
	"testing"

	"nda/internal/asm"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/workload"
)

func runIO(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewFromProgram(p, DefaultParams())
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBasics(t *testing.T) {
	m := runIO(t, `
main:   li   t0, 0
        li   t1, 1
loop:   add  t0, t0, t1
        addi t1, t1, 1
        slti t2, t1, 101
        bne  t2, zero, loop
        halt
`)
	if got := m.Emu().Regs[isa.RegT0]; got != 5050 {
		t.Errorf("sum = %d", got)
	}
	if m.Cycles() == 0 || m.Stats().CPI() < 1 {
		t.Errorf("implausible CPI %.2f", m.Stats().CPI())
	}
}

func TestDifferentialAgainstEmu(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := workload.Random(seed, 150)
			golden := emu.New(prog)
			if err := golden.Run(5_000_000); err != nil {
				t.Fatal(err)
			}
			m := NewFromProgram(prog, DefaultParams())
			if err := m.Run(5_000_000); err != nil {
				t.Fatal(err)
			}
			if m.Retired() != golden.Retired {
				t.Errorf("retired = %d, want %d", m.Retired(), golden.Retired)
			}
			for i := range golden.Regs {
				if m.Emu().Regs[i] != golden.Regs[i] {
					t.Errorf("x%d = %#x, want %#x", i, m.Emu().Regs[i], golden.Regs[i])
				}
			}
		})
	}
}

func TestBlockingLoadsAreSlow(t *testing.T) {
	// Loads with L1 hits still block: CPI must be well above 1 on a
	// load-dominated kernel.
	m := runIO(t, `
        .data
        .org 0x100000
buf:    .space 4096
        .text
main:   li   s0, 0x100000
        li   s1, 256
loop:   ld   t0, (s0)
        ld   t1, 8(s0)
        ld   t2, 16(s0)
        addi s0, s0, 24
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
`)
	if cpi := m.Stats().CPI(); cpi < 3 {
		t.Errorf("blocking-load CPI = %.2f, want >= 3", cpi)
	}
}

func TestILPAndMLPBounded(t *testing.T) {
	m := runIO(t, `
        .data
        .org 0x100000
buf:    .space 65536
        .text
main:   li   s0, 0x100000
        li   s1, 512
loop:   ld   t0, (s0)
        addi s0, s0, 128     # stride past a line: frequent misses
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
`)
	if ilp := m.Stats().ILP(); ilp != 1.0 {
		t.Errorf("in-order ILP = %.3f, must be exactly 1.0", ilp)
	}
	if mlp := m.Stats().MLP(); mlp > 1.0 || mlp == 0 {
		t.Errorf("in-order MLP = %.3f, must be in (0, 1]", mlp)
	}
}

func TestResetStats(t *testing.T) {
	p := asm.MustAssemble(`
main:   li t0, 1000
loop:   addi t0, t0, -1
        bne t0, zero, loop
        halt
`)
	m := NewFromProgram(p, DefaultParams())
	if err := m.RunInsts(500); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Committed >= m.Retired() {
		t.Error("reset must drop warm-up instructions from the counters")
	}
}

func TestFaultHandling(t *testing.T) {
	m := runIO(t, `
        .data
        .org 0x20000
        .kernel
secret: .word64 1
        .text
main:   la t0, handler
        wrmsr 0x0, t0
        la t1, secret
        ld t2, (t1)
        halt
handler: li t3, 55
        halt
`)
	if m.Emu().Regs[isa.Reg(28)] != 55 {
		t.Error("handler must run on the in-order core too")
	}
}

func TestRunawayGuard(t *testing.T) {
	p := asm.MustAssemble("main: j main")
	m := NewFromProgram(p, DefaultParams())
	if err := m.Run(1000); err == nil {
		t.Error("runaway program must be detected")
	}
}

func TestHaltedAndZeroStats(t *testing.T) {
	m := runIO(t, "main: halt")
	if !m.Halted() {
		t.Error("must be halted")
	}
	// The blocking core counts every cycle as a commit cycle.
	if s := m.Stats(); s.Cycles == 0 || s.CommitCycles != s.Cycles {
		t.Errorf("commit cycles %d of %d", s.CommitCycles, s.Cycles)
	}
	m.ResetStats()
	if s := m.Stats(); s.CPI() != 0 || s.MLP() != 0 || s.ILP() != 0 {
		t.Error("reset stats must report 0")
	}
}

func TestTakenBranchPenalty(t *testing.T) {
	// Equal instruction counts; the jumpy variant takes a jump every other
	// instruction and must pay the redirect penalty for each.
	straight := "main: li t0, 0\n"
	for i := 0; i < 100; i++ {
		straight += "addi t0, t0, 1\n"
	}
	straight += "halt\n"

	jumpy := "main: li t0, 0\n"
	for i := 0; i < 50; i++ {
		jumpy += fmt.Sprintf("addi t0, t0, 1\nj l%d\nnop\nl%d:\n", i, i)
	}
	jumpy += "halt\n"

	ms := runIO(t, straight)
	mj := runIO(t, jumpy)
	if ms.Emu().Regs[5] != 100 || mj.Emu().Regs[5] != 50 {
		t.Fatal("programs wrong")
	}
	perInstStraight := float64(ms.Cycles()) / float64(ms.Retired())
	perInstJumpy := float64(mj.Cycles()) / float64(mj.Retired())
	if perInstJumpy <= perInstStraight {
		t.Errorf("taken control flow must cost more per instruction: %.2f vs %.2f",
			perInstJumpy, perInstStraight)
	}
}
