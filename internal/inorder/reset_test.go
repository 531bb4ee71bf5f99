package inorder_test

import (
	"testing"

	"nda/internal/attack"
	"nda/internal/emu"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/mem"
	"nda/internal/stats"
	"nda/internal/workload"
)

// ioRecord is everything observable about one run, which a reset machine
// must reproduce exactly.
type ioRecord struct {
	err     string
	cycles  uint64
	retired uint64
	halted  bool
	faults  uint64
	stats   stats.Counters
	regs    [isa.NumGPR]uint64
	msrs    [isa.NumMSR]uint64
}

// record runs m to completion, or for budget instructions when budget is
// nonzero, and captures the run.
func record(m *inorder.Machine, budget uint64) ioRecord {
	var err error
	if budget > 0 {
		err = m.RunInsts(budget)
	} else {
		err = m.Run(50_000_000)
	}
	r := ioRecord{cycles: m.Cycles(), retired: m.Retired(), halted: m.Halted(), stats: *m.Stats(),
		faults: m.Emu().Faults, regs: m.Emu().Regs, msrs: m.Emu().MSR}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func loaded(prog *isa.Program) *mem.Memory {
	m := mem.New()
	emu.Load(m, prog)
	return m
}

// TestResetMatchesFresh runs every workload kernel (small iteration count)
// and every attack PoC (cut short, so the next link resets a machine
// stopped mid-run) twice: on a fresh machine, and on the machine the
// previous target left dirty, Reset. The runs must be indistinguishable:
// cycles, retired instructions, faults, statistics, registers and MSRs.
func TestResetMatchesFresh(t *testing.T) {
	type target struct {
		name   string
		prog   *isa.Program
		budget uint64
	}
	var targets []target
	for _, s := range workload.All() {
		targets = append(targets, target{name: s.Name, prog: s.Build(2)})
	}
	for _, k := range attack.All() {
		prog, err := attack.Program(k)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{name: string(k), prog: prog, budget: 3_000})
	}
	p := inorder.DefaultParams()
	last := targets[len(targets)-1]
	dirty := inorder.New(last.prog, loaded(last.prog), p)
	record(dirty, last.budget)
	for _, tg := range targets {
		fresh := record(inorder.New(tg.prog, loaded(tg.prog), p), tg.budget)
		if fresh.err != "" && tg.budget == 0 {
			t.Errorf("%s: %s", tg.name, fresh.err)
		}
		dirty.Reset(tg.prog, loaded(tg.prog))
		if got := record(dirty, tg.budget); got != fresh {
			t.Errorf("%s: reset machine differs from fresh:\n got %+v\nwant %+v", tg.name, got, fresh)
		}
	}
}

// Reset keeps Params and clears Cancel.
func TestResetClearsCancelKeepsParams(t *testing.T) {
	prog := workload.Random(5, 50)
	p := inorder.DefaultParams()
	p.DivLatency = 7
	m := inorder.New(prog, loaded(prog), p)
	m.Cancel = make(chan struct{})
	m.Reset(prog, loaded(prog))
	if m.Cancel != nil {
		t.Error("Reset kept Cancel")
	}
	if m.Params() != p {
		t.Errorf("Reset changed Params to %+v", m.Params())
	}
}
