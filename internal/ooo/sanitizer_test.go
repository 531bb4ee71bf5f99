package ooo

import (
	"slices"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/mem"
	"nda/internal/workload"
)

// TestSanitizerCleanOnWorkloads runs every workload kernel under Full
// Protection with the propagation sanitizer enabled: benign code must never
// trip the invariant ("no consumer issues on a value whose producer was
// unsafe at broadcast-defer time"), whatever the kernel's mix of
// load-dependent loads, branches, and calls.
func TestSanitizerCleanOnWorkloads(t *testing.T) {
	params := DefaultParams()
	params.Sanitize = true
	for _, s := range workload.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			c := NewFromProgram(s.Build(2), core.FullProtection(), params)
			if err := c.Run(maxCycles); err != nil {
				t.Fatal(err)
			}
			if n := c.SanitizerViolations(); n != 0 {
				t.Errorf("%d sanitizer violations under FullProtection", n)
				for _, v := range c.SanitizerLog() {
					t.Log(v)
				}
			}
		})
	}
}

// TestSanitizerCatchesForcedLeak is the negative oracle: if a ready bit
// appears on an in-flight producer's destination register before its tag
// broadcast — the exact plumbing bug NDA's deferral exists to rule out —
// the sanitizer must flag it. The test forces that state by hand and runs
// the end-of-cycle checks directly.
func TestSanitizerCatchesForcedLeak(t *testing.T) {
	prog, err := asm.Assemble(`
main:   li   t0, 1
        addi t1, t0, 1
        addi t2, t1, 1
        addi t3, t2, 1
        addi t4, t3, 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	c := NewFromProgram(prog, core.FullProtection(), params)
	for cycles := 0; cycles < 1000 && !c.halted; cycles++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.robLen; i++ {
			e := c.robAt(i)
			if e.DestP == noPReg || e.Node.Broadcast || c.regReady[e.DestP] {
				continue
			}
			before := c.sanCount
			c.regReady[e.DestP] = true // the injected plumbing bug
			c.checkInvariants()
			c.regReady[e.DestP] = false
			if c.sanCount == before {
				t.Fatalf("sanitizer missed forced ready-without-broadcast on p%d (seq %d)", e.DestP, e.Seq)
			}
			log := c.SanitizerLog()
			last := log[len(log)-1]
			if last.Check != "ready-without-broadcast" || last.Seq != e.Seq {
				t.Fatalf("logged %v, want ready-without-broadcast at seq %d", last, e.Seq)
			}
			return
		}
	}
	t.Fatal("never observed an in-flight producer awaiting broadcast")
}

// TestSanitizerCatchesUnsafeBroadcast is check 2's negative oracle: under
// Strict, a load still under an unresolved branch that broadcasts anyway
// is a propagation leak. The test marks such a load broadcast this cycle
// by hand and requires exactly that one finding from the end-of-cycle
// checks.
func TestSanitizerCatchesUnsafeBroadcast(t *testing.T) {
	prog, err := asm.Assemble(`
        .data
        .org 0x40000
word:   .word64 7
        .text
main:   la   s0, word
        li   t0, 1
        div  t1, t0, t0
        beq  t1, zero, done
        ld   t2, (s0)
        addi t3, t2, 1
done:   halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	c := NewFromProgram(prog, core.Strict(), params)
	for cycles := 0; cycles < 1000 && !c.halted; cycles++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.robLen; i++ {
			e := c.robAt(i)
			if !e.Inst.Op.IsLoad() || e.DestP == noPReg || !e.Node.UnderGuard || e.Node.Broadcast {
				continue
			}
			before, logged := c.sanCount, len(c.sanLog)
			e.Node.Broadcast, e.BcastCycle = true, c.cycle // the injected plumbing bug
			c.checkInvariants()
			e.Node.Broadcast, e.BcastCycle = false, 0
			if c.sanCount != before+1 || len(c.sanLog) != logged+1 {
				t.Fatalf("forced unsafe broadcast of seq %d: %d findings, want 1: %v", e.Seq, c.sanCount-before, c.sanLog[logged:])
			}
			if v := c.sanLog[logged]; v.Check != "unsafe-broadcast" || v.Seq != e.Seq || v.Cycle != c.cycle {
				t.Fatalf("logged %v, want unsafe-broadcast at seq %d, cycle %d", v, e.Seq, c.cycle)
			}
			return
		}
	}
	t.Fatal("never observed a guarded load awaiting broadcast")
}

// TestResetClearsSanitizerMarks is the regression test for stale writer
// state. Reset keeps the sanitizer's writer slots, so a slot a previous run
// left for physical register p names whatever entry the new run puts in
// that ROB slot. If checks 3–4 trusted it, a consumer of p issuing while
// that entry is in flight and unbroadcast would look like it read an
// unbroadcast producer. The test finds a consumer issuing at cycle k from
// a register no instruction has written yet (so nothing in the new run
// records a writer for it first) while an older entry is in flight
// unbroadcast, plants that entry's slot as p's writer on a dirtied core,
// and requires the reset run to stay clean.
func TestResetClearsSanitizerMarks(t *testing.T) {
	params := DefaultParams()
	params.Sanitize = true
	prog, err := asm.Assemble(`
main:   li   t1, 7
        div  t2, t1, t1
        add  t3, t0, t0
        halt
`)
	if err != nil {
		t.Fatal(err)
	}

	var k uint64
	p := noPReg
	var slot int32
	written := make([]bool, params.PhysRegs)
	ref := NewFromProgram(prog, core.FullProtection(), params)
	for !ref.halted && p == noPReg {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ref.robLen; i++ {
			e := ref.robAt(i)
			if e.Issued && e.IssuedAt == ref.cycle {
				for _, src := range []int{e.Src1P, e.Src2P} {
					if src == noPReg || written[src] || p != noPReg {
						continue
					}
					for j := 0; j < i; j++ {
						if w := ref.robAt(j); w.DestP != noPReg && !w.Node.Broadcast {
							k, p, slot = ref.cycle, src, w.Slot
							break
						}
					}
				}
			}
			if e.DestP != noPReg {
				written[e.DestP] = true
			}
		}
	}
	if p == noPReg {
		t.Fatal("no consumer of an unwritten register issued past an unbroadcast producer")
	}

	s, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c := NewFromProgram(s.Build(2), core.Strict(), params)
	if err := c.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	c.sanWriter[p] = slot
	m := mem.New()
	emu.Load(m, prog)
	c.Reset(prog, m, core.FullProtection())
	if err := c.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if n := c.SanitizerViolations(); n != 0 {
		t.Errorf("%d violations after Reset from a stale writer slot %d on p%d (consumer at cycle %d)", n, slot, p, k)
		for _, v := range c.SanitizerLog() {
			t.Log(v)
		}
	}
}

// TestSanitizerLogPinned pins the sanitizer's findings, their count and
// their order, on a forced leak that trips checks 1, 3 and 4. At the end of
// every cycle in which something issued, it clears the broadcast bit of
// every in-flight producer that has broadcast and reruns the checks: each
// such producer's ready register is then check 1's finding, a consumer that
// issued this cycle reading one is check 3's, and a load that forwarded
// this cycle from a store whose data came from one is check 4's. Cycle 169
// logs checks 1 and 3 together, so the test also fixes their order: every
// check-1/2 finding of a cycle precedes its check-3/4 findings. The
// expected log was recorded when the checks made two ROB walks per cycle.
func TestSanitizerLogPinned(t *testing.T) {
	prog, err := asm.Assemble(`
        .data
        .org 0x10000
slot:   .word64 0
        .org 0x40000
far:    .word64 0
        .text
main:   la   s0, slot
        la   s1, far
        ld   t3, (s1)        # cold miss holds the ROB head
        li   t0, 7
        sd   t0, (s0)
        ld   t1, (s0)        # forwards from the store
        add  t2, t1, t0
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	c := NewFromProgram(prog, core.Baseline(), params)
	for !c.halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		issued := false
		for i := 0; i < c.robLen; i++ {
			if e := c.robAt(i); e.Issued && e.IssuedAt == c.cycle {
				issued = true
			}
		}
		if !issued {
			continue
		}
		var cleared []*Entry
		for i := 0; i < c.robLen; i++ {
			if e := c.robAt(i); e.DestP != noPReg && e.Node.Broadcast {
				e.Node.Broadcast = false // the injected plumbing bug
				cleared = append(cleared, e)
			}
		}
		c.checkInvariants()
		for _, e := range cleared {
			e.Node.Broadcast = true
		}
	}
	want := []Violation{
		{Cycle: 151, Check: "ready-without-broadcast", PC: 0x100c, Seq: 4, Detail: "p252 is ready but li x5, 7 has not broadcast (completed=true)"},
		{Cycle: 165, Check: "ready-without-broadcast", PC: 0x100c, Seq: 4, Detail: "p252 is ready but li x5, 7 has not broadcast (completed=true)"},
		{Cycle: 165, Check: "forward-before-broadcast", PC: 0x1014, Seq: 9, Detail: "ld x6, 0(x8) forwarded from store seq 5 whose data producer (seq 4, p252) has not broadcast"},
		{Cycle: 169, Check: "ready-without-broadcast", PC: 0x100c, Seq: 4, Detail: "p252 is ready but li x5, 7 has not broadcast (completed=true)"},
		{Cycle: 169, Check: "ready-without-broadcast", PC: 0x1014, Seq: 9, Detail: "p251 is ready but ld x6, 0(x8) has not broadcast (completed=true)"},
		{Cycle: 169, Check: "issued-before-broadcast", PC: 0x1018, Seq: 10, Detail: "add x7, x6, x5 issued reading p251 before its producer (seq 9) broadcast"},
		{Cycle: 169, Check: "issued-before-broadcast", PC: 0x1018, Seq: 10, Detail: "add x7, x6, x5 issued reading p252 before its producer (seq 4) broadcast"},
	}
	if n := c.SanitizerViolations(); n != uint64(len(want)) {
		t.Errorf("SanitizerViolations = %d, want %d", n, len(want))
	}
	if got := c.SanitizerLog(); !slices.Equal(got, want) {
		t.Errorf("sanitizer log:\n%v\nwant:\n%v", got, want)
	}
}
