package ooo

import (
	"fmt"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/workload"
)

const maxCycles = 5_000_000

func runOoO(t *testing.T, src string, pol core.Policy) *Core {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := NewFromProgram(p, pol, DefaultParams())
	if err := c.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStraightLine(t *testing.T) {
	c := runOoO(t, `
main:   li   t0, 40
        addi t1, t0, 2
        add  t2, t0, t1
        halt
`, core.Baseline())
	if got := c.Reg(isa.RegT2); got != 82 {
		t.Errorf("t2 = %d, want 82", got)
	}
	if c.Retired() != 4 {
		t.Errorf("retired = %d", c.Retired())
	}
}

func TestLoop(t *testing.T) {
	c := runOoO(t, `
main:   li   t0, 0
        li   t1, 1
loop:   add  t0, t0, t1
        addi t1, t1, 1
        slti t2, t1, 101
        bne  t2, zero, loop
        halt
`, core.Baseline())
	if got := c.Reg(isa.RegT0); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestMemoryBasics(t *testing.T) {
	c := runOoO(t, `
        .data
        .org 0x10000
arr:    .word64 10, 20, 30
        .text
main:   la   s0, arr
        ld   t0, 8(s0)
        addi t0, t0, 5
        sd   t0, 16(s0)
        ld   t1, 16(s0)
        lbu  t2, 16(s0)
        halt
`, core.Baseline())
	if c.Reg(isa.RegT1) != 25 || c.Reg(isa.RegT2) != 25 {
		t.Errorf("t1=%d t2=%d, want 25", c.Reg(isa.RegT1), c.Reg(isa.RegT2))
	}
	if c.Memory().Read(0x10010, 8) != 25 {
		t.Error("store must commit to memory")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// The cold DRAM load at the head blocks commit for ~140 cycles, pinning
	// the store in the store queue; the younger load must forward from it.
	c := runOoO(t, `
        .data
        .org 0x10000
arr:    .word64 10, 20, 30
        .org 0x40000
far:    .word64 7
        .text
main:   la   s0, arr
        la   s1, far
        ld   t3, (s1)       # cold miss: blocks retirement of everything below
        li   t0, 25
        sd   t0, 16(s0)
        ld   t1, 16(s0)     # must forward from the pinned store
        lbu  t2, 16(s0)
        halt
`, core.Baseline())
	if c.Reg(isa.RegT1) != 25 || c.Reg(isa.RegT2) != 25 {
		t.Errorf("t1=%d t2=%d, want 25", c.Reg(isa.RegT1), c.Reg(isa.RegT2))
	}
	if c.Stats().LoadForwards == 0 {
		t.Error("expected store-to-load forwarding")
	}
}

func TestCallsAndReturns(t *testing.T) {
	c := runOoO(t, `
main:   li   a0, 5
        call double
        call double
        call double
        halt
double: add  a0, a0, a0
        ret
`, core.Baseline())
	if got := c.Reg(isa.RegA0); got != 40 {
		t.Errorf("a0 = %d, want 40", got)
	}
}

func TestIndirectCallThroughTable(t *testing.T) {
	c := runOoO(t, `
        .data
        .org 0x10000
tbl:    .word64 f0, f1
        .text
main:   la   s0, tbl
        ld   t0, 8(s0)
        callr t0
        ld   t1, (s0)
        callr t1
        halt
f0:     addi a0, a0, 1
        ret
f1:     addi a0, a0, 100
        ret
`, core.Baseline())
	if got := c.Reg(isa.RegA0); got != 101 {
		t.Errorf("a0 = %d, want 101", got)
	}
}

func TestFaultVectorsToHandler(t *testing.T) {
	c := runOoO(t, `
        .data
        .org 0x20000
        .kernel
secret: .word64 0x1337
        .text
main:   la   t0, handler
        wrmsr 0x0, t0
        la   t1, secret
        ld   t2, (t1)
        li   t3, 111        # must be squashed
        halt
handler:
        li   t4, 222
        halt
`, core.Baseline())
	if c.Reg(isa.Reg(28)) != 0 {
		t.Error("post-fault instruction leaked into architectural state")
	}
	if c.Reg(isa.Reg(29)) != 222 {
		t.Error("handler did not run")
	}
	if c.Reg(isa.RegT2) != 0 {
		t.Error("faulting load wrote its architectural register")
	}
	if c.Stats().Faults != 1 {
		t.Errorf("faults = %d", c.Stats().Faults)
	}
}

func TestMispredictRecovery(t *testing.T) {
	// A data-dependent unpredictable-ish branch pattern with side effects
	// on both paths; correctness requires clean squash.
	c := runOoO(t, `
main:   li   t0, 0       # i
        li   t1, 0       # acc
        li   t2, 1
loop:   andi t3, t0, 5
        beq  t3, zero, even
        addi t1, t1, 7
        j    next
even:   addi t1, t1, 1
next:   addi t0, t0, 1
        slti t4, t0, 200
        bne  t4, zero, loop
        halt
`, core.Baseline())
	// Of i in [0,200): i&5==0 for i%8 in {0,2} -> 50 times... compute in
	// the reference emulator instead to avoid hand-arithmetic mistakes.
	p := asm.MustAssemble(`
main:   li   t0, 0
        li   t1, 0
        li   t2, 1
loop:   andi t3, t0, 5
        beq  t3, zero, even
        addi t1, t1, 7
        j    next
even:   addi t1, t1, 1
next:   addi t0, t0, 1
        slti t4, t0, 200
        bne  t4, zero, loop
        halt
`)
	m := emu.New(p)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if c.Reg(isa.RegT1) != m.Regs[isa.RegT1] {
		t.Errorf("acc = %d, want %d", c.Reg(isa.RegT1), m.Regs[isa.RegT1])
	}
	if c.Stats().Mispredicts == 0 {
		t.Error("expected at least one mispredict")
	}
}

func TestWrongPathStoreDoesNotCommit(t *testing.T) {
	// The branch is mis-trained taken, then falls through; the wrong path
	// contains a store that must never reach memory.
	c := runOoO(t, `
        .data
        .org 0x10000
flag:   .word64 0
slot:   .word64 0
        .text
main:   la   s0, flag
        li   t0, 10
train:  addi t0, t0, -1
        beq  t0, zero, out   # not taken 9x, taken last
        li   t1, 99
        sd   t1, 8(s0)       # executes (wrong-path on final iteration? no: correct path)
        j    train
out:    halt
`, core.Baseline())
	if c.Memory().Read(0x10008, 8) != 99 {
		t.Error("correct-path store lost")
	}
	_ = c
}

// differential runs a program on the reference emulator and on the OoO core
// under every policy (plus checks retired counts), requiring identical
// architectural results.
func differential(t *testing.T, prog *isa.Program, policies []core.Policy) {
	t.Helper()
	golden := emu.New(prog)
	if err := golden.Run(5_000_000); err != nil {
		t.Fatalf("emu: %v", err)
	}

	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name, func(t *testing.T) {
			c := NewFromProgram(prog, pol, DefaultParams())
			if err := c.Run(maxCycles); err != nil {
				t.Fatalf("ooo[%s]: %v", pol.Name, err)
			}
			if c.Retired() != golden.Retired {
				t.Errorf("retired = %d, want %d", c.Retired(), golden.Retired)
			}
			regs := c.Regs()
			for i := range regs {
				if regs[i] != golden.Regs[i] {
					t.Errorf("x%d = %#x, want %#x", i, regs[i], golden.Regs[i])
				}
			}
			for addr := uint64(0x100000); addr < 0x102000; addr += 8 {
				if got, want := c.Memory().Read(addr, 8), golden.Mem.Read(addr, 8); got != want {
					t.Errorf("mem[%#x] = %#x, want %#x", addr, got, want)
					break
				}
			}
		})
	}
}

func TestDifferentialRandomBaseline(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			differential(t, workload.Random(seed, 120), []core.Policy{core.Baseline()})
		})
	}
}

func TestDifferentialRandomAllPolicies(t *testing.T) {
	policies := core.All()
	for seed := int64(100); seed <= 106; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			differential(t, workload.Random(seed, 100), policies)
		})
	}
}

func TestDifferentialLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential")
	}
	differential(t, workload.Random(424242, 2000), []core.Policy{
		core.Baseline(), core.FullProtection(),
	})
}

// --- timing sanity ---

func TestDependentChainCPI(t *testing.T) {
	src := "main: li t0, 1\n"
	for i := 0; i < 2000; i++ {
		src += "add t0, t0, t0\n"
	}
	src += "halt\n"
	c := runOoO(t, src, core.Baseline())
	cpi := c.Stats().CPI()
	if cpi > 1.25 {
		t.Errorf("dependent ALU chain CPI = %.2f, want ~1", cpi)
	}
}

func TestIndependentALUIPC(t *testing.T) {
	src := "main: li t0, 1\nli t1, 2\nli t2, 3\nli t3, 4\n"
	for i := 0; i < 1000; i++ {
		src += "add t4, t0, t1\nadd t5, t0, t2\nadd t6, t1, t2\nadd s2, t0, t3\n"
	}
	src += "halt\n"
	c := runOoO(t, src, core.Baseline())
	if ipc := c.Stats().IPC(); ipc < 2.5 {
		t.Errorf("independent ALU IPC = %.2f, want > 2.5", ipc)
	}
}

func TestStrictSlowerThanBaselineOnBranchyLoads(t *testing.T) {
	src := `
        .data
        .org 0x100000
buf:    .space 8192
        .text
main:   li   s0, 0x100000
        li   s1, 0          # i
        li   s2, 0          # acc
loop:   andi t0, s1, 1016
        add  t0, t0, s0
        ld   t1, (t0)       # load under an unresolved branch shadow
        add  s2, s2, t1
        addi s1, s1, 8
        slti t2, s1, 4000
        bne  t2, zero, loop
        halt
`
	base := runOoO(t, src, core.Baseline())
	strict := runOoO(t, src, core.Strict())
	if base.Stats().CPI() >= strict.Stats().CPI() {
		t.Errorf("strict CPI (%.2f) must exceed baseline CPI (%.2f)",
			strict.Stats().CPI(), base.Stats().CPI())
	}
	if strict.Stats().DeferredBroadcasts == 0 {
		t.Error("strict must defer broadcasts")
	}
}

func TestLoadRestrictionDelaysWakeup(t *testing.T) {
	src := `
        .data
        .org 0x100000
buf:    .word64 1, 2, 3, 4, 5, 6, 7, 8
        .text
main:   li   s0, 0x100000
        ld   t0, (s0)
        add  t1, t0, t0     # dependent on the load
        ld   t2, 8(s0)
        add  t3, t2, t2
        halt
`
	base := runOoO(t, src, core.Baseline())
	lr := runOoO(t, src, core.LoadRestrict())
	if lr.Cycles() <= base.Cycles() {
		t.Errorf("load restriction (%d cycles) must be slower than baseline (%d)",
			lr.Cycles(), base.Cycles())
	}
	if lr.Reg(isa.RegT1) != 2 || lr.Reg(isa.Reg(28)) != 4 {
		t.Error("architectural results must be unaffected")
	}
}

// A policy's gate list is public data, so an edited list may name a gate
// the core has no rule for. New must refuse it rather than run a core that
// ignores a gate the analyzer reports as blocking.
func TestNewRefusesUnenforceableGate(t *testing.T) {
	prog, err := asm.Assemble("main: halt")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []core.Gate{
		{Edge: core.EdgeFill, Scope: core.ScopeBypassingLoad, Until: core.ReleaseStoreAddrsResolve},
		{Edge: core.EdgeLoadUse, Scope: core.ScopeUnderGuard, Until: core.ReleaseRetire},
		{Edge: core.EdgeAnyUse, Scope: core.ScopeAlways, Until: core.ReleaseGuardsResolve},
		{Edge: core.EdgeKind(9), Scope: core.ScopeUnderGuard, Until: core.ReleaseGuardsResolve},
	} {
		pol := core.Permissive()
		pol.Gates = append(pol.Gates, g)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a policy with gate %+v", g)
				}
			}()
			NewFromProgram(prog, pol, DefaultParams())
		}()
	}
}

func TestFenceSerializes(t *testing.T) {
	c := runOoO(t, `
main:   li t0, 1
        fence
        li t1, 2
        fence
        li t2, 3
        halt
`, core.Baseline())
	if c.Reg(isa.RegT2) != 3 {
		t.Error("fence program wrong result")
	}
}

func TestRdcycleMonotonic(t *testing.T) {
	c := runOoO(t, `
main:   rdcycle t0
        li  s1, 500
spin:   addi s1, s1, -1
        bne s1, zero, spin
        rdcycle t1
        sltu t2, t0, t1
        halt
`, core.Baseline())
	if c.Reg(isa.RegT2) != 1 {
		t.Errorf("rdcycle must increase: t0=%d t1=%d", c.Reg(isa.RegT0), c.Reg(isa.RegT1))
	}
	// ~500 iterations of a 3-instruction dependent loop: the delta must be
	// at least the loop's trip count.
	if delta := c.Reg(isa.RegT1) - c.Reg(isa.RegT0); delta < 500 {
		t.Errorf("rdcycle delta = %d, implausibly small", delta)
	}
}

func TestInvisiSpecArchitecturallyIdentical(t *testing.T) {
	prog := workload.Random(777, 150)
	differential(t, prog, []core.Policy{core.InvisiSpecSpectre(), core.InvisiSpecFuture()})
}

func TestStatsBreakdownAccountsEveryCycle(t *testing.T) {
	c := runOoO(t, `
        .data
        .org 0x100000
buf:    .space 4096
        .text
main:   li   s0, 0x100000
        li   s1, 512
loop:   ld   t0, (s0)
        add  t1, t0, t0
        addi s0, s0, 8
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
`, core.Baseline())
	s := c.Stats()
	sum := s.CommitCycles + s.MemStallCycles + s.BackendStalls + s.FrontendStalls
	if sum != s.Cycles {
		t.Errorf("breakdown sum %d != cycles %d", sum, s.Cycles)
	}
	if s.Cycles != c.Cycles() {
		t.Errorf("stats cycles %d != core cycles %d", s.Cycles, c.Cycles())
	}
}
