package ooo_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nda/internal/asm"
	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/mem"
	"nda/internal/ooo"
	"nda/internal/stats"
	"nda/internal/workload"
)

// runRecord is everything observable about one run, which a reset core must
// reproduce exactly.
type runRecord struct {
	err      string
	cycles   uint64
	retired  uint64
	halted   bool
	stats    stats.Counters
	regs     [isa.NumGPR]uint64
	msrs     [isa.NumMSR]uint64
	channel  []ooo.ChannelEvent
	retires  []ooo.TraceEvent
	commits  int
	sanCount uint64
	sanLog   []ooo.Violation
}

// record arms every trace hook on c, runs it to completion or for
// maxCycles (0: no practical limit), and captures the run.
func record(c *ooo.Core, maxCycles uint64) *runRecord {
	if maxCycles == 0 {
		maxCycles = 50_000_000
	}
	r := &runRecord{}
	c.TraceChannel = func(ev ooo.ChannelEvent) { r.channel = append(r.channel, ev) }
	c.TraceRetire = func(ev ooo.TraceEvent) {
		r.retires = append(r.retires, ev)
		r.commits++
	}
	if err := c.Run(maxCycles); err != nil {
		r.err = err.Error()
	}
	r.cycles, r.retired, r.halted = c.Cycles(), c.Retired(), c.Halted()
	r.stats = *c.Stats()
	r.regs = c.Regs()
	for i := range r.msrs {
		r.msrs[i] = c.MSR(uint16(i))
	}
	r.sanCount = c.SanitizerViolations()
	r.sanLog = slices.Clone(c.SanitizerLog())
	return r
}

// diff names the first field in which two records differ ("" if none).
func (a *runRecord) diff(b *runRecord) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("error %q vs %q", a.err, b.err)
	case a.cycles != b.cycles || a.retired != b.retired || a.halted != b.halted:
		return fmt.Sprintf("cycles/retired/halted %d/%d/%v vs %d/%d/%v",
			a.cycles, a.retired, a.halted, b.cycles, b.retired, b.halted)
	case a.stats != b.stats:
		return fmt.Sprintf("stats %+v vs %+v", a.stats, b.stats)
	case a.regs != b.regs:
		return "architectural registers differ"
	case a.msrs != b.msrs:
		return "MSRs differ"
	case !slices.Equal(a.channel, b.channel):
		return fmt.Sprintf("channel traces differ (%d vs %d events)", len(a.channel), len(b.channel))
	case !slices.Equal(a.retires, b.retires):
		return fmt.Sprintf("retire traces differ (%d vs %d events)", len(a.retires), len(b.retires))
	case a.commits != b.commits:
		return fmt.Sprintf("commit hook calls %d vs %d", a.commits, b.commits)
	case a.sanCount != b.sanCount || !reflect.DeepEqual(a.sanLog, b.sanLog):
		return fmt.Sprintf("sanitizer %d %v vs %d %v", a.sanCount, a.sanLog, b.sanCount, b.sanLog)
	}
	return ""
}

type resetTarget struct {
	name string
	prog *isa.Program
	// budget, when nonzero, cuts the run off at that cycle with work still
	// in flight.
	budget uint64
}

// pocBudget stops each attack PoC early. By 3,000 cycles every PoC has
// trained its predictors, flushed its probe array, mispredicted, squashed
// and (Meltdown, LazyFP) faulted; the remaining ~35,000 cycles time the
// probe array, and stepping them with the sanitizer on would make this the
// slowest test in the package.
const pocBudget = 4_000

// Two hand-written targets leave the return-address stack dirty for the
// next: rasDeep halts inside nested calls, and rasUnderflow then returns
// with nothing pushed, which a stale stack would predict.
const (
	rasDeep = `
main:   call f1
        halt
f1:     call f2
        ret
f2:     call f3
        ret
f3:     halt
`
	rasUnderflow = `
main:   la   ra, done
        ret
        nop
done:   li   t0, 1
        halt
`
)

// resetTargets is the two return-stack corner cases, every workload kernel
// (small iteration count) and every attack PoC (cut short).
func resetTargets(t *testing.T) []resetTarget {
	var out []resetTarget
	for _, src := range []string{rasDeep, rasUnderflow} {
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resetTarget{name: "ras", prog: prog})
	}
	for _, s := range workload.All() {
		out = append(out, resetTarget{name: s.Name, prog: s.Build(2)})
	}
	for _, k := range attack.All() {
		prog, err := attack.Program(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resetTarget{name: string(k), prog: prog, budget: pocBudget})
	}
	return out
}

func loaded(prog *isa.Program) *mem.Memory {
	m := mem.New()
	emu.Load(m, prog)
	return m
}

// TestResetMatchesFresh runs every kernel and attack PoC under every policy
// twice: on a fresh core, and on a core that just ran a different program
// under a different policy (sanitizer and every trace hook armed) and was
// then Reset. The two runs must be indistinguishable: statistics, cycles,
// registers, MSRs, channel and retire traces, and the sanitizer's count and
// log. The PoCs are cut off mid-run, so the links after them also cover a
// reset with entries in flight in the ROB, the fetch queue and the
// schedulers.
//
// Each policy offset j is one chain over all targets: target i runs under
// policy (i+j) mod 9 on the core the previous link left dirty, so
// consecutive links differ in both program and policy, and the nine chains
// together cover every (target, policy) pair.
func TestResetMatchesFresh(t *testing.T) {
	params := ooo.DefaultParams()
	params.Sanitize = true
	targets := resetTargets(t)
	pols := core.All()
	for j := range pols {
		t.Run(fmt.Sprintf("chain%d", j), func(t *testing.T) {
			t.Parallel()
			// Dirty the core for the first link (target 0 under policy
			// j) with the last target under the next policy.
			last := targets[len(targets)-1]
			dirty := ooo.New(last.prog, loaded(last.prog), pols[(j+1)%len(pols)], params)
			record(dirty, last.budget)
			for i, tg := range targets {
				pol := pols[(i+j)%len(pols)]
				fresh := record(ooo.New(tg.prog, loaded(tg.prog), pol, params), tg.budget)
				if fresh.err != "" && tg.budget == 0 {
					t.Errorf("%s under %s: %s", tg.name, pol.Name, fresh.err)
				}
				dirty.Reset(tg.prog, loaded(tg.prog), pol)
				if d := record(dirty, tg.budget).diff(fresh); d != "" {
					t.Errorf("%s under %s: reset core differs from fresh: %s", tg.name, pol.Name, d)
				}
			}
		})
	}
}

// Reset keeps Params and clears every hook.
func TestResetClearsHooksKeepsParams(t *testing.T) {
	params := ooo.DefaultParams()
	params.BroadcastPorts = 1
	params.Sanitize = true
	s, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := s.Build(2)
	c := ooo.New(prog, loaded(prog), core.Strict(), params)
	c.Cancel = make(chan struct{})
	record(c, 0)
	c.Reset(prog, loaded(prog), core.Strict())
	if c.Cancel != nil || c.TraceRetire != nil || c.TraceChannel != nil {
		t.Error("Reset left a hook armed")
	}
	if c.Cycles() != 0 || c.Retired() != 0 || c.Halted() || *c.Stats() != (stats.Counters{}) {
		t.Error("Reset left run state behind")
	}
	want := record(ooo.New(prog, loaded(prog), core.Strict(), params), 0)
	if d := record(c, 0).diff(want); d != "" {
		t.Errorf("Reset did not keep Params (1 broadcast port): %s", d)
	}
	if record(ooo.New(prog, loaded(prog), core.Strict(), ooo.DefaultParams()), 0).diff(want) == "" {
		t.Fatal("default Params run identically; the check above proves nothing")
	}
}
