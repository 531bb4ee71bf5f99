package emu

import (
	"strings"
	"testing"

	"nda/internal/asm"
	"nda/internal/isa"
	"nda/internal/mem"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticLoop(t *testing.T) {
	m := run(t, `
main:   li   t0, 0      # sum
        li   t1, 1      # i
loop:   add  t0, t0, t1
        addi t1, t1, 1
        slti t2, t1, 11
        bne  t2, zero, loop
        halt
`)
	if got := m.Regs[isa.RegT0]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemoryOps(t *testing.T) {
	m := run(t, `
        .data
        .org 0x10000
arr:    .word64 10, 20, 30
        .text
main:   la   s0, arr
        ld   t0, 8(s0)
        addi t0, t0, 5
        sd   t0, 16(s0)
        lw   t1, 16(s0)
        lbu  t2, 16(s0)
        halt
`)
	if m.Regs[isa.RegT1] != 25 || m.Regs[isa.RegT2] != 25 {
		t.Errorf("t1=%d t2=%d, want 25", m.Regs[isa.RegT1], m.Regs[isa.RegT2])
	}
	if got := m.Mem.Read(0x10010, 8); got != 25 {
		t.Errorf("mem = %d", got)
	}
}

func TestCallReturn(t *testing.T) {
	m := run(t, `
main:   li   a0, 5
        call double
        call double
        halt
double: add  a0, a0, a0
        ret
`)
	if m.Regs[isa.RegA0] != 20 {
		t.Errorf("a0 = %d, want 20", m.Regs[isa.RegA0])
	}
}

func TestIndirectJump(t *testing.T) {
	m := run(t, `
        .data
        .org 0x10000
tbl:    .word64 f0, f1
        .text
main:   la   s0, tbl
        ld   t0, 8(s0)
        callr t0
        halt
f0:     li   a0, 100
        ret
f1:     li   a0, 200
        ret
`)
	if m.Regs[isa.RegA0] != 200 {
		t.Errorf("a0 = %d, want 200", m.Regs[isa.RegA0])
	}
}

func TestKernelLoadFaultsToHandler(t *testing.T) {
	m := run(t, `
        .data
        .org 0x20000
        .kernel
secret: .word64 0x1337
        .text
main:   la   t0, handler
        wrmsr 0x0, t0        # install trap handler
        la   t1, secret
        ld   t2, (t1)        # faults
        li   t3, 111         # skipped
        halt
handler:
        li   t4, 222
        halt
`)
	if m.Regs[isa.Reg(28)] != 0 { // t3 = x28
		t.Error("instruction after fault must not execute")
	}
	if m.Regs[isa.Reg(29)] != 222 { // t4 = x29
		t.Error("handler must run")
	}
	if m.Faults != 1 {
		t.Errorf("faults = %d", m.Faults)
	}
	if isa.FaultKind(m.MSR[isa.MSRTrapCause]) != isa.FaultKernelLoad {
		t.Errorf("cause = %v", isa.FaultKind(m.MSR[isa.MSRTrapCause]))
	}
	if m.MSR[isa.MSRTrapAddr] != 0x20000 {
		t.Errorf("fault addr = %#x", m.MSR[isa.MSRTrapAddr])
	}
	// The faulting load must not have written its destination.
	if m.Regs[isa.RegT2] != 0 {
		t.Error("faulting load must not update its register")
	}
}

func TestUnhandledFaultFatal(t *testing.T) {
	p := asm.MustAssemble(`
        .data
        .org 0x20000
        .kernel
secret: .word64 1
        .text
main:   la t0, secret
        ld t1, (t0)
        halt
`)
	m := New(p)
	err := m.Run(100)
	if err == nil || !strings.Contains(err.Error(), "unhandled fault") {
		t.Errorf("err = %v", err)
	}
}

func TestPrivilegedMSRFaults(t *testing.T) {
	m := run(t, `
main:   la t0, handler
        wrmsr 0x0, t0
        rdmsr t1, 0x10       # privileged: faults
        halt
handler: li t2, 1
        halt
`)
	if m.Regs[isa.RegT2] != 1 {
		t.Error("privileged rdmsr must fault to the handler")
	}
	if isa.FaultKind(m.MSR[isa.MSRTrapCause]) != isa.FaultPrivilegeMSR {
		t.Errorf("cause = %v", isa.FaultKind(m.MSR[isa.MSRTrapCause]))
	}
}

func TestKernelModeAccess(t *testing.T) {
	p := asm.MustAssemble(`
        .data
        .org 0x20000
        .kernel
secret: .word64 77
        .text
main:   la t0, secret
        ld t1, (t0)
        rdmsr t2, 0x10
        halt
`)
	m := New(p)
	m.UserMode = false
	m.MSR[isa.MSRSecretKey] = 99
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.RegT1] != 77 || m.Regs[isa.RegT2] != 99 {
		t.Errorf("kernel mode reads: t1=%d t2=%d", m.Regs[isa.RegT1], m.Regs[isa.RegT2])
	}
}

func TestScratchMSRRoundTrip(t *testing.T) {
	m := run(t, `
main:   li t0, 4242
        wrmsr 0x3, t0
        rdmsr t1, 0x3
        halt
`)
	if m.Regs[isa.RegT1] != 4242 {
		t.Errorf("scratch MSR = %d", m.Regs[isa.RegT1])
	}
}

func TestDivRemEdge(t *testing.T) {
	m := run(t, `
main:   li t0, 7
        li t1, 0
        div t2, t0, t1
        rem t3, t0, t1
        halt
`)
	if m.Regs[isa.RegT2] != ^uint64(0) {
		t.Error("div by zero must be all-ones")
	}
	if m.Regs[isa.Reg(28)] != 7 {
		t.Error("rem by zero must be the dividend")
	}
}

func TestRunawayDetected(t *testing.T) {
	p := asm.MustAssemble("main: j main")
	m := New(p)
	if err := m.Run(1000); err == nil {
		t.Error("infinite loop must be detected")
	}
}

func TestFetchOffTextFatal(t *testing.T) {
	p := asm.MustAssemble("main: nop") // falls off the end
	m := New(p)
	m.Step()
	if err := m.Step(); err == nil || !strings.Contains(err.Error(), "outside text") {
		t.Errorf("err = %v", err)
	}
}

func TestRunN(t *testing.T) {
	p := asm.MustAssemble(`
main:   li t0, 0
loop:   addi t0, t0, 1
        j loop
`)
	m := New(p)
	if err := m.RunN(101); err != nil {
		t.Fatal(err)
	}
	if m.Retired != 101 {
		t.Errorf("retired = %d", m.Retired)
	}
}

func TestStepInfo(t *testing.T) {
	p := asm.MustAssemble(`
        .data
        .org 0x10000
x:      .word64 5
        .text
main:   la t0, x
        ld t1, (t0)
        sd t1, 8(t0)
        beq t1, t1, main
`)
	m := New(p)
	m.Step()
	m.Step()
	if got := m.Last; !got.Inst.IsLoad() || got.MemAddr != 0x10000 || got.MemSize != 8 || got.IsStore {
		t.Errorf("load info = %+v", got)
	}
	m.Step()
	if got := m.Last; !got.IsStore || got.MemAddr != 0x10008 {
		t.Errorf("store info = %+v", got)
	}
	m.Step()
	if !m.Last.Taken {
		t.Error("taken branch must be recorded")
	}
}

func TestHaltIsSticky(t *testing.T) {
	m := run(t, "main: halt")
	r := m.Retired
	if err := m.Step(); err != nil || m.Retired != r {
		t.Error("stepping a halted machine must be a no-op")
	}
}

func TestNewWithMemory(t *testing.T) {
	p := asm.MustAssemble(`
main:   la t0, 0x9000
        ld t1, (t0)
        halt
`)
	m0 := mem.New()
	m0.Write(0x9000, 8, 777)
	m := NewWithMemory(p, m0)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.RegT1] != 777 {
		t.Errorf("t1 = %d", m.Regs[isa.RegT1])
	}
}

func TestLoadAppliesKernelPerms(t *testing.T) {
	p := asm.MustAssemble(`
        .data
        .org 0x20000
        .kernel
sec:    .word64 5
        .text
main:   halt
`)
	m0 := mem.New()
	Load(m0, p)
	if m0.UserAccessOK(0x20000, 1) {
		t.Error("Load must apply kernel protection")
	}
	if m0.Read(0x20000, 8) != 5 {
		t.Error("Load must apply data")
	}
}

func TestRunNOnHaltedMachine(t *testing.T) {
	m := run(t, "main: halt")
	if err := m.RunN(10); err != nil {
		t.Fatal(err)
	}
}
