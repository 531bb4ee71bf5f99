package ooo

import (
	"fmt"
	"reflect"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/progen"
	"nda/internal/stats"
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
//     stepping the very same program one cycle at a time, and the same
//     channel trace and sanitizer findings — property-tested over random
//     and generated gadget programs under every policy, with the
//     propagation sanitizer off and on.

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
	s, _ := c.fqPush()
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
	s, _ := c.fqPush()
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

// TestRunMatchesPerCycleStepping is the property test: under every policy,
// with the propagation sanitizer off and on, over random programs and over
// gadget-bearing generated programs with their secrets planted, the jumping
// Run and the per-cycle reference must agree on every statistic, the final
// cycle count, the architectural state, the channel trace the differential
// fuzzer compares, and every sanitizer finding.
func TestRunMatchesPerCycleStepping(t *testing.T) {
	var progs []*isa.Program
	for seed := int64(0); seed < 3; seed++ {
		progs = append(progs, workload.Random(4200+seed, 400))
	}
	nGadget := 50
	if testing.Short() {
		nGadget = 10
	}
	for _, p := range gadgetPrograms(t, nGadget) {
		progs = append(progs, p.Prog)
	}
	for _, sanitize := range []bool{false, true} {
		params := DefaultParams()
		params.Sanitize = sanitize
		for _, pol := range core.All() {
			for i, prog := range progs {
				name := fmt.Sprintf("%s program %d (sanitize=%v)", pol.Name, i, sanitize)
				run := func(step bool) *runRecord {
					r := &runRecord{}
					c := NewFromProgram(prog, pol, params)
					plantSecrets(c)
					c.TraceChannel = func(ev ChannelEvent) { r.events = append(r.events, ev) }
					if step {
						stepReference(t, c, maxCycles)
					} else if err := c.Run(maxCycles); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					r.capture(c)
					return r
				}
				compareRuns(t, name, run(false), run(true))
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

// runRecord is everything a run exposes: timing, architectural state, the
// attacker-observable channel trace and the sanitizer's findings.
type runRecord struct {
	cycles, retired uint64
	stats           stats.Counters
	regs            [isa.NumGPR]uint64
	events          []ChannelEvent
	violations      uint64
	log             []Violation
}

// capture records c's end state into r.
func (r *runRecord) capture(c *Core) {
	r.cycles, r.retired, r.stats, r.regs = c.Cycles(), c.Retired(), *c.Stats(), c.Regs()
	r.violations, r.log = c.SanitizerViolations(), c.SanitizerLog()
}

// compareRuns fails the test on any difference between a jumped and a
// per-cycle stepped run.
func compareRuns(t *testing.T, name string, jumped, stepped *runRecord) {
	t.Helper()
	if jumped.cycles != stepped.cycles || jumped.retired != stepped.retired {
		t.Errorf("%s: cycles/retired %d/%d (jumped) != %d/%d (stepped)",
			name, jumped.cycles, jumped.retired, stepped.cycles, stepped.retired)
	}
	if jumped.stats != stepped.stats {
		t.Errorf("%s: stats diverge:\n jumped:  %+v\n stepped: %+v", name, jumped.stats, stepped.stats)
	}
	if jumped.regs != stepped.regs {
		t.Errorf("%s: architectural registers diverge", name)
	}
	if !reflect.DeepEqual(jumped.events, stepped.events) {
		t.Errorf("%s: channel traces diverge: %d events (jumped) vs %d (stepped)",
			name, len(jumped.events), len(stepped.events))
	}
	if jumped.violations != stepped.violations || !reflect.DeepEqual(jumped.log, stepped.log) {
		t.Errorf("%s: sanitizer diverges: %d violations %v (jumped) vs %d %v (stepped)",
			name, jumped.violations, jumped.log, stepped.violations, stepped.log)
	}
}

// plantSecrets prepares c the way the differential fuzzer does: secret
// bytes in every planted region, the privileged MSR set, and the secret
// lines warmed so wrong-path chains outrun their guard's miss.
func plantSecrets(c *Core) {
	var fill [progen.SecretBytes]byte
	for i := range fill {
		fill[i] = 0xA5
	}
	for _, base := range []uint64{progen.SecretBase, progen.StaleBase, progen.KSecretBase} {
		c.Memory().StoreBytes(base, fill[:])
		c.Hierarchy().Data(base)
	}
	c.SetMSR(isa.MSRSecretKey, 0x200100)
}

// gadgetPrograms returns the first n generated programs that carry at least
// one real transient-leak fragment.
func gadgetPrograms(t *testing.T, n int) []*progen.Program {
	t.Helper()
	gadget := map[string]bool{}
	for _, k := range progen.GadgetKinds {
		gadget[k] = true
	}
	var out []*progen.Program
	for seed := int64(1); len(out) < n; seed++ {
		p, err := progen.Gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range p.Frags {
			if gadget[k] {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// TestSanitizerFindingsStopJumps forces a persistent ready-without-broadcast
// on a load waiting for its DRAM fill, a stalled stretch the run loop would
// otherwise jump over in one go. Check 1 fires on every cycle of that
// stretch under per-cycle stepping, so the jumping Run must step it too and
// end with the identical violation count and log.
func TestSanitizerFindingsStopJumps(t *testing.T) {
	prog, err := asm.Assemble(`
main:   li   t0, 4096
        ld   t1, 0(t0)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Sanitize = true
	force := func() *Core {
		c := NewFromProgram(prog, core.Baseline(), params)
		stepUntil(t, c, func() bool {
			e := c.inFlight(isa.OpLd)
			return e != nil && e.Issued && !e.Node.Completed
		})
		c.regReady[c.inFlight(isa.OpLd).DestP] = true // the injected plumbing bug
		return c
	}
	jc, sc := force(), force()
	var jumped, stepped runRecord
	if err := jc.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	jumped.capture(jc)
	stepReference(t, sc, maxCycles)
	stepped.capture(sc)
	if stepped.violations <= maxSanitizerLog {
		t.Fatalf("forced stretch logged %d violations, want more than the %d-entry log holds", stepped.violations, maxSanitizerLog)
	}
	if stepped.log[0].Check != "ready-without-broadcast" {
		t.Fatalf("first finding %v, want ready-without-broadcast", stepped.log[0])
	}
	compareRuns(t, "forced leak", &jumped, &stepped)
}
