package ooo

import (
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/isa"
)

// The wake-up path (tag broadcast → waiter set → rdyq → select) replaced a
// per-cycle readiness poll of every issue-queue entry. These tests pin its
// corner cases, and check that the sanitizer, which reads only regReady and
// Node.Broadcast, still catches a wake-up bug.

// wakeCore assembles src and builds a sanitized core for it.
func wakeCore(t *testing.T, src string) *Core {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	return NewFromProgram(prog, core.FullProtection(), params)
}

// stepUntil steps c, checking the side lists after every cycle, until cond
// holds; it fails the test if the program halts first.
func stepUntil(t *testing.T, c *Core, cond func() bool) {
	t.Helper()
	for !cond() {
		if c.halted {
			t.Fatal("halted before the awaited pipeline state")
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckSideLists(); err != nil {
			t.Fatal(err)
		}
	}
}

// finish runs c to its halt with the side-list check on every cycle, then
// requires a clean sanitizer and the functional emulator's registers.
func finish(t *testing.T, c *Core) {
	t.Helper()
	stepUntil(t, c, func() bool { return c.halted })
	if n := c.SanitizerViolations(); n != 0 {
		t.Errorf("%d sanitizer violations: %v", n, c.SanitizerLog())
	}
	golden := emu.New(c.prog)
	if err := golden.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for i, want := range golden.Regs {
		if got := c.Reg(isa.Reg(i)); got != want {
			t.Errorf("x%d = %#x, want %#x", i, got, want)
		}
	}
}

// inFlight returns the in-flight entry running op, or nil.
func (c *Core) inFlight(op isa.Op) *Entry {
	for i := 0; i < c.robLen; i++ {
		if e := c.robAt(i); e.Inst.Op == op {
			return e
		}
	}
	return nil
}

// retireTrace records every retirement's life-cycle record by opcode.
func retireTrace(c *Core) map[isa.Op]TraceEvent {
	evs := map[isa.Op]TraceEvent{}
	c.TraceRetire = func(ev TraceEvent) { evs[ev.Inst.Op] = ev }
	return evs
}

// TestSanitizerCatchesPrematureWake is the negative oracle for the wake-up
// state: a consumer woken before its producer broadcasts must be logged as
// issued-before-broadcast at its own Seq. The test does by hand what a
// broken wake-up would do — empties the consumer's wait and puts it on
// rdyq while its producer, a 20-cycle divide, is still executing.
func TestSanitizerCatchesPrematureWake(t *testing.T) {
	c := wakeCore(t, `
main:   li   t0, 100
        li   t1, 7
        div  t2, t0, t1
        addi t3, t2, 1
        halt
`)
	var e *Entry
	stepUntil(t, c, func() bool { e = c.inFlight(isa.OpAddi); return e != nil })
	if e.waiting != 1 || c.inFlight(isa.OpDiv).Node.Broadcast {
		t.Fatalf("consumer dispatched with waiting=%d, want 1 on an unbroadcast divide", e.waiting)
	}
	a, b := e.wakeSrcs()
	c.unwait(e, a)
	c.unwait(e, b)
	e.waiting = 0
	c.rdyq.insert(c.rob, e.Slot) // the injected wake-up bug

	seq := e.Seq
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if !e.Issued {
		t.Fatal("the prematurely woken consumer did not issue")
	}
	for _, v := range c.SanitizerLog() {
		if v.Check == "issued-before-broadcast" && v.Seq == seq {
			return
		}
	}
	t.Fatalf("sanitizer log %v has no issued-before-broadcast at seq %d", c.SanitizerLog(), seq)
}

// TestWakeSameRegisterTwice: a consumer naming one unready register as both
// sources waits on one broadcast, not two, and issues in the very cycle of
// that broadcast (broadcast runs before select).
func TestWakeSameRegisterTwice(t *testing.T) {
	c := wakeCore(t, `
main:   li   t0, 100
        li   t1, 7
        div  t2, t0, t1
        add  t3, t2, t2
        halt
`)
	evs := retireTrace(c)
	var e *Entry
	stepUntil(t, c, func() bool { e = c.inFlight(isa.OpAdd); return e != nil })
	if e.waiting != 1 {
		t.Fatalf("add t3, t2, t2 dispatched with waiting=%d, want 1", e.waiting)
	}
	finish(t, c)
	if div, add := evs[isa.OpDiv], evs[isa.OpAdd]; add.Issue != div.Broadcast {
		t.Errorf("consumer issued at cycle %d, want the producer's broadcast cycle %d", add.Issue, div.Broadcast)
	}
}

// TestWakeStoreWaitsOnlyForAddress: a store whose address base is ready
// issues its address generation while its data register's producer is
// still executing; the data is read at commit.
func TestWakeStoreWaitsOnlyForAddress(t *testing.T) {
	c := wakeCore(t, `
        .data
        .org 0x100000
buf:    .space 8
        .text
main:   la   s0, buf
        li   t0, 100
        li   t1, 7
        div  t2, t0, t1
        sd   t2, (s0)
        ld   t3, (s0)
        halt
`)
	evs := retireTrace(c)
	finish(t, c)
	if div, sd := evs[isa.OpDiv], evs[isa.OpSd]; sd.Issue >= div.Broadcast {
		t.Errorf("store issued at cycle %d, not before its data producer's broadcast at %d", sd.Issue, div.Broadcast)
	}
}

// TestWakeSquashedProducer: a consumer waits on a producer that a squash
// removes along with it, and on an older producer that survives. The squash
// must take the consumer out of both waiter sets: the survivor's broadcast
// must not wake the slot's next occupant, and the squashed producer's
// register goes back to the free list with an empty set.
func TestWakeSquashedProducer(t *testing.T) {
	c := wakeCore(t, `
main:   li   t0, 100
        li   t1, 7
        div  t2, t0, t1
        div  t3, t2, t1
        add  t4, t3, t2
        halt
`)
	var e *Entry
	stepUntil(t, c, func() bool { e = c.inFlight(isa.OpAdd); return e != nil })
	if e.waiting != 2 {
		t.Fatalf("consumer dispatched with waiting=%d, want 2", e.waiting)
	}
	var victim *Entry
	for i := 0; i < c.robLen; i++ {
		if d := c.robAt(i); d.Inst.Op == isa.OpDiv && d.Inst.Rd == isa.RegT3 {
			victim = d
		}
	}
	if victim == nil || victim.Node.Broadcast || c.inFlight(isa.OpDiv).Node.Broadcast {
		t.Fatal("want both divides in flight and unbroadcast")
	}
	// Squash the second divide and the consumer, as a memory-order
	// violation would, and refetch from the divide.
	c.squashFrom(victim.Seq, victim.PC)
	if err := c.CheckSideLists(); err != nil {
		t.Fatal(err)
	}
	finish(t, c)
}
