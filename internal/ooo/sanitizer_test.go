package ooo

import (
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

// TestResetClearsSanitizerMarks is the regression test for stale writer
// marks. Cycle numbers restart at zero after Reset, so a mark a previous run
// left on physical register p at cycle k would, at cycle k of the next run,
// make a consumer of p look like it read an in-flight, unbroadcast producer.
// The test finds a consumer issuing at cycle k from a register no
// instruction has written yet (so nothing in the new run overwrites the
// mark first), plants that mark on a dirtied core, and requires the reset
// run to stay clean.
func TestResetClearsSanitizerMarks(t *testing.T) {
	params := DefaultParams()
	params.Sanitize = true
	prog, err := asm.Assemble(`
main:   li   t1, 7
        mul  t2, t1, t1
        add  t3, t2, t0
        halt
`)
	if err != nil {
		t.Fatal(err)
	}

	var k uint64
	p := noPReg
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
					if src != noPReg && !written[src] && p == noPReg {
						k, p = ref.cycle, src
					}
				}
			}
			if e.DestP != noPReg {
				written[e.DestP] = true
			}
		}
	}
	if p == noPReg {
		t.Fatal("no consumer of an unwritten register found")
	}

	s, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c := NewFromProgram(s.Build(2), core.Strict(), params)
	if err := c.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	c.sanWriterMark[p], c.sanWriterSeq[p], c.sanWriterBcast[p] = k, 0, false
	m := mem.New()
	emu.Load(m, prog)
	c.Reset(prog, m, core.FullProtection())
	if err := c.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if n := c.SanitizerViolations(); n != 0 {
		t.Errorf("%d violations after Reset from a stale mark on p%d at cycle %d", n, p, k)
		for _, v := range c.SanitizerLog() {
			t.Log(v)
		}
	}
}
