package ooo_test

import (
	"testing"

	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/isa"
	"nda/internal/ooo"
)

// TestTraceRetireMatchesEmulatorCommits runs the Meltdown PoC, whose
// kernel load faults and vectors to the handler, under every policy. The
// one trace hook must fire once per instruction the reference emulator
// commits, in the same order and the faulting load included, and only the
// faulting load's record carries a fault.
func TestTraceRetireMatchesEmulatorCommits(t *testing.T) {
	prog, err := attack.Program(attack.Meltdown)
	if err != nil {
		t.Fatal(err)
	}
	type commit struct {
		pc    uint64
		fault bool
	}
	var want []commit
	ref := emu.New(prog)
	for !ref.Halted {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		want = append(want, commit{ref.Last.PC, ref.Last.Faulted})
	}
	if ref.Faults != 1 {
		t.Fatalf("emulator took %d faults, want 1", ref.Faults)
	}

	for _, pol := range core.All() {
		c := ooo.New(prog, loaded(prog), pol, ooo.DefaultParams())
		var got []commit
		c.TraceRetire = func(ev ooo.TraceEvent) {
			got = append(got, commit{ev.PC, ev.Fault != isa.FaultNone})
		}
		if err := c.Run(10_000_000); err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if len(got) != len(want) || uint64(len(got)) != c.Retired() {
			t.Fatalf("%s: hook fired %d times, core retired %d, emulator committed %d",
				pol.Name, len(got), c.Retired(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = {pc %#x fault %v}, emulator committed {pc %#x fault %v}",
					pol.Name, i, got[i].pc, got[i].fault, want[i].pc, want[i].fault)
			}
		}
	}
}
