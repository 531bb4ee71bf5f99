package ooo

import (
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/workload"
)

// The event-driven Run loop rests on two claims, tested here:
//
//  1. nextEventCycle returns the minimum over every pending time-gated
//     event (cache fills completing, replays retrying, deferred-broadcast
//     delays expiring, InvisiSpec validation ending, fetch-queue readiness,
//     fetch-stall expiry) — unit-tested on hand-built pipeline states;
//  2. jumping over quiescent cycles is invisible: Run/RunInsts produce
//     byte-identical statistics, cycle counts, and architectural state to
//     stepping the very same program one cycle at a time — property-tested
//     over random programs under every policy.

// quiesce builds a core whose pipeline is empty and whose front end is
// parked, so nextEventCycle sees only the events a test plants. A test
// plants an entry's event by allocating it and listing its slot where the
// pipeline would: execq, rdyq or bcq.
func quiesce(t *testing.T) *Core {
	t.Helper()
	p, err := asm.Assemble("main: halt\n")
	if err != nil {
		t.Fatal(err)
	}
	c := NewFromProgram(p, core.Baseline(), DefaultParams())
	c.fetchDead = true // park fetch: no fetch-stall event unless planted
	c.cycle = 100
	return c
}

func TestNextEventCompletionIsMinimum(t *testing.T) {
	c := quiesce(t)
	for i, at := range []uint64{900, 350, 4000} {
		e := c.robAlloc()
		e.Seq = uint64(i + 1)
		e.Issued = true
		e.CompleteAt = at
		c.execq.push(e.Slot)
	}
	if h := c.nextEventCycle(); h != 350 {
		t.Errorf("horizon = %d, want 350 (earliest CompleteAt)", h)
	}
}

func TestNextEventReplayRetry(t *testing.T) {
	c := quiesce(t)
	e := c.robAlloc()
	e.Seq = 1
	e.RetryAt = 102
	c.rdyq.push(e.Slot)
	if h := c.nextEventCycle(); h != 102 {
		t.Errorf("horizon = %d, want 102 (RetryAt)", h)
	}
}

func TestNextEventDeferredBroadcastDelay(t *testing.T) {
	c := quiesce(t)
	c.policy = core.Permissive()
	c.policy.ExtraBroadcastDelay = 7
	e := c.robAlloc()
	e.Seq = 1
	e.Issued = true
	e.Node.Completed = true
	e.DestP = 10
	e.HasSafeSince = true
	e.SafeSince = 98
	c.bcq.push(e.Slot)
	if h := c.nextEventCycle(); h != 105 {
		t.Errorf("horizon = %d, want 105 (SafeSince 98 + delay 7)", h)
	}
}

func TestNextEventCommitValidate(t *testing.T) {
	c := quiesce(t)
	c.commitValidate = 140
	if h := c.nextEventCycle(); h != 140 {
		t.Errorf("horizon = %d, want 140 (commitValidate)", h)
	}
}

func TestNextEventFetchQueueReadiness(t *testing.T) {
	c := quiesce(t)
	s := c.fqPush()
	s.seq = 1
	s.readyAt = 108
	if h := c.nextEventCycle(); h != 108 {
		t.Errorf("horizon = %d, want 108 (fetch-queue head readyAt)", h)
	}
}

func TestNextEventFetchStall(t *testing.T) {
	c := quiesce(t)
	c.fetchDead = false
	c.fetchStall = 300
	if h := c.nextEventCycle(); h != 300 {
		t.Errorf("horizon = %d, want 300 (fetch stall expiry)", h)
	}
	// A waiting or dead front end has no stall event: the wake-up comes
	// from a branch resolution or a squash, which are completion events.
	c.fetchWait = true
	if h := c.nextEventCycle(); h != c.cycle+1 {
		t.Errorf("horizon = %d, want %d (no event: fall back one cycle)", h, c.cycle+1)
	}
}

func TestNextEventMinAcrossSources(t *testing.T) {
	c := quiesce(t)
	c.commitValidate = 500
	e := c.robAlloc()
	e.Seq = 1
	e.Issued = true
	e.CompleteAt = 410
	c.execq.push(e.Slot)
	s := c.fqPush()
	s.seq = 2
	s.readyAt = 430
	if h := c.nextEventCycle(); h != 410 {
		t.Errorf("horizon = %d, want 410 (min across sources)", h)
	}
}

// TestStalledCoreSkipsToFill drives a core with Step until it goes
// quiescent behind an off-chip load, then checks the horizon is exactly the
// load's fill cycle — the event-loop claim on the paper's dominant stall.
func TestStalledCoreSkipsToFill(t *testing.T) {
	p, err := asm.Assemble(`
main:   li   t0, 4096
        ld   t1, 0(t0)
        addi t1, t1, 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewFromProgram(p, core.Baseline(), DefaultParams())
	for i := 0; i < 200_000; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.progress {
			continue
		}
		var load *Entry
		for j := 0; j < c.robLen; j++ {
			if e := c.robAt(j); e.Inst.IsLoad() && e.Issued && !e.Node.Completed {
				load = e
			}
		}
		if load == nil {
			continue // quiescent on something else (e.g. front-end depth)
		}
		if h := c.nextEventCycle(); h != load.CompleteAt {
			t.Fatalf("cycle %d: horizon = %d, want the DRAM fill at %d", c.cycle, h, load.CompleteAt)
		}
		return
	}
	t.Fatal("core never went quiescent behind the off-chip load")
}

// stepReference replicates the pre-event-loop Run: one Step per cycle, no
// jumping. It is the oracle the property test compares against.
func stepReference(t *testing.T, c *Core, maxCycles uint64) {
	t.Helper()
	for !c.halted {
		if c.cycle >= maxCycles {
			t.Fatalf("reference run exceeded %d cycles", maxCycles)
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunMatchesPerCycleStepping is the property test: for random programs
// under every policy, the jumping Run and the per-cycle reference must agree
// on every statistic, the final cycle count, and the architectural state.
func TestRunMatchesPerCycleStepping(t *testing.T) {
	params := DefaultParams()
	for _, pol := range core.All() {
		for seed := int64(0); seed < 3; seed++ {
			prog := workload.Random(4200+seed, 400)
			jumped := NewFromProgram(prog, pol, params)
			if err := jumped.Run(maxCycles); err != nil {
				t.Fatalf("%s seed %d: %v", pol.Name, seed, err)
			}
			stepped := NewFromProgram(prog, pol, params)
			stepReference(t, stepped, maxCycles)

			if jumped.Cycles() != stepped.Cycles() {
				t.Errorf("%s seed %d: cycles %d (jumped) != %d (stepped)",
					pol.Name, seed, jumped.Cycles(), stepped.Cycles())
			}
			if jumped.Retired() != stepped.Retired() {
				t.Errorf("%s seed %d: retired %d != %d",
					pol.Name, seed, jumped.Retired(), stepped.Retired())
			}
			if *jumped.Stats() != *stepped.Stats() {
				t.Errorf("%s seed %d: stats diverge:\n jumped:  %+v\n stepped: %+v",
					pol.Name, seed, *jumped.Stats(), *stepped.Stats())
			}
			if jumped.Regs() != stepped.Regs() {
				t.Errorf("%s seed %d: architectural registers diverge", pol.Name, seed)
			}
		}
	}
}

// TestRunInstsMatchesPerCycleStepping checks the same property on the
// sampling-harness path: fixed instruction windows with warm-up resets.
func TestRunInstsMatchesPerCycleStepping(t *testing.T) {
	params := DefaultParams()
	prog := workload.Random(777, 4000)
	for _, pol := range core.All() {
		jumped := NewFromProgram(prog, pol, params)
		if err := jumped.RunInsts(500, maxCycles); err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		jumped.ResetStats()
		if err := jumped.RunInsts(1000, maxCycles); err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}

		stepped := NewFromProgram(prog, pol, params)
		for !stepped.halted && stepped.retired < 500 {
			if err := stepped.Step(); err != nil {
				t.Fatal(err)
			}
		}
		stepped.ResetStats()
		target := stepped.retired + 1000
		for !stepped.halted && stepped.retired < target {
			if err := stepped.Step(); err != nil {
				t.Fatal(err)
			}
		}

		if jumped.Cycles() != stepped.Cycles() {
			t.Errorf("%s: cycles %d != %d", pol.Name, jumped.Cycles(), stepped.Cycles())
		}
		if *jumped.Stats() != *stepped.Stats() {
			t.Errorf("%s: measurement-window stats diverge:\n jumped:  %+v\n stepped: %+v",
				pol.Name, *jumped.Stats(), *stepped.Stats())
		}
	}
}
