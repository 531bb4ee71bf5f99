package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/stats"
	"nda/internal/workload"
)

// runToHalt finishes a program on the emulator and returns final state.
func runToHalt(t *testing.T, m *emu.Machine) *emu.Machine {
	t.Helper()
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// take captures the one checkpoint skipInsts instructions into prog.
func take(t *testing.T, prog *isa.Program, skipInsts uint64) *Checkpoint {
	t.Helper()
	cps, err := TakeSeries(context.Background(), prog, skipInsts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cps[0]
}

// resume builds a functional machine resuming from cp on a clone of its
// memory, so cp stays reusable.
func resume(cp *Checkpoint, prog *isa.Program) *emu.Machine {
	m := emu.NewWithMemory(prog, cp.Mem.Clone())
	m.PC, m.Retired, m.Regs, m.MSR = cp.PC, cp.Retired, cp.Regs, cp.MSR
	return m
}

func TestCaptureResumeEquivalence(t *testing.T) {
	// Uninterrupted execution and checkpoint-then-resume must reach
	// identical final state.
	for seed := int64(1); seed <= 5; seed++ {
		prog := workload.Random(seed, 200)
		full := runToHalt(t, emu.New(prog))

		resumed := runToHalt(t, resume(take(t, prog, full.Retired/2), prog))

		if resumed.Retired != full.Retired {
			t.Errorf("seed %d: retired %d, want %d", seed, resumed.Retired, full.Retired)
		}
		if resumed.Regs != full.Regs {
			t.Errorf("seed %d: register state diverged", seed)
		}
		// Clones of equal images are laid out alike, so they compare equal.
		if !reflect.DeepEqual(resumed.Mem.Clone(), full.Mem.Clone()) {
			t.Errorf("seed %d: memory image diverged", seed)
		}
	}
}

func TestTakeRejectsHaltingPrograms(t *testing.T) {
	prog := workload.Random(5, 10)
	full := runToHalt(t, emu.New(prog))
	if _, err := TakeSeries(context.Background(), prog, full.Retired+100, 0, 1); err == nil {
		t.Error("fast-forward past the program's end must fail")
	}
}

func TestTakeSeries(t *testing.T) {
	prog := workload.Random(11, 400)
	cps, err := TakeSeries(context.Background(), prog, 100, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 4 {
		t.Fatalf("got %d checkpoints", len(cps))
	}
	for i := 1; i < len(cps); i++ {
		if cps[i].Retired != cps[i-1].Retired+200 {
			t.Errorf("stride wrong: %d -> %d", cps[i-1].Retired, cps[i].Retired)
		}
	}
	// Each point must independently resume to the same final state.
	want := runToHalt(t, emu.New(prog)).Regs
	for i, cp := range cps {
		got := runToHalt(t, resume(cp, prog)).Regs
		if got != want {
			t.Errorf("checkpoint %d resumes to different state", i)
		}
	}
}

// TestTakeSeriesChunkedFastForward: fast-forwarding in ctx-checked chunks
// lands on exactly the state one uninterrupted run reaches, and a cancelled
// context stops the fast-forward with its own error.
func TestTakeSeriesChunkedFastForward(t *testing.T) {
	spec, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(1 << 40)
	first, stride := uint64(2*ffChunk+5), uint64(ffChunk+3)
	cps, err := TakeSeries(context.Background(), prog, first, stride, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, cp := range cps {
		want := emu.New(prog)
		if err := want.RunN(first + uint64(i)*stride); err != nil {
			t.Fatal(err)
		}
		if cp.Retired != want.Retired || cp.PC != want.PC || cp.Regs != want.Regs {
			t.Errorf("checkpoint %d: chunked fast-forward diverged from one run", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TakeSeries(ctx, prog, first, stride, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestTakeSeriesBudget: a series fails closed against its page budget,
// before the fast-forward when n copies of the loaded image already exceed
// it (the cancelled ctx would otherwise stop the fast-forward), and during
// capture once the pages the captured checkpoints hold would.
func TestTakeSeriesBudget(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	data := asm.MustAssemble("main: halt\n.data\n.org 0x100000\n.byte 1\n.org 0x101000\n.byte 1\n.org 0x102000\n.byte 1\n.org 0x103000\n.byte 1")
	if _, err := takeSeries(cancelled, data, 10, 10, 3, 11); err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "3 checkpoints of a 4-page image") {
		t.Errorf("12 pages against 11: err = %v, want the budget error before the fast-forward", err)
	}

	// Every loop iteration (3 instructions) stores to a page of its own.
	grow := asm.MustAssemble("main: li t0, 0x100000\nloop: sd t0, 0(t0)\naddi t0, t0, 4096\nj loop")
	if _, err := takeSeries(context.Background(), grow, 31, 30, 2, 30); err != nil {
		t.Errorf("10+20 pages against 30: %v", err)
	}
	_, err := takeSeries(context.Background(), grow, 31, 30, 2, 29)
	if err == nil || !strings.Contains(err.Error(), "checkpoint 2 of 2 brings the series to 30 pages") {
		t.Errorf("10+20 pages against 29: err = %v, want the budget error at the second checkpoint", err)
	}
}

func TestOoOFromCheckpointMatchesGolden(t *testing.T) {
	// Run the first half functionally, the second half on the OoO core
	// under every policy: the final state must match an uninterrupted
	// functional run.
	prog := workload.Random(21, 250)
	full := runToHalt(t, emu.New(prog))
	cp := take(t, prog, full.Retired/2)
	for _, pol := range core.All() {
		t.Run(pol.Name, func(t *testing.T) {
			c := new(Cores).ResumeOoO(cp, prog, pol, ooo.DefaultParams())
			if err := c.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			if got := cp.Retired + c.Retired(); got != full.Retired {
				t.Errorf("retired %d, want %d", got, full.Retired)
			}
			for i := 0; i < isa.NumGPR; i++ {
				if c.Reg(isa.Reg(i)) != full.Regs[i] {
					t.Errorf("x%d = %#x, want %#x", i, c.Reg(isa.Reg(i)), full.Regs[i])
				}
			}
		})
	}
}

func TestInOrderFromCheckpointMatchesGolden(t *testing.T) {
	prog := workload.Random(22, 250)
	full := runToHalt(t, emu.New(prog))
	cp := take(t, prog, full.Retired/3)
	m := new(Cores).ResumeInOrder(cp, prog, inorder.DefaultParams())
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Emu().Regs != full.Regs {
		t.Error("in-order resume diverged")
	}
}

func TestCheckpointReusable(t *testing.T) {
	// Building a core from a checkpoint must not mutate it.
	prog := workload.Random(33, 200)
	cp := take(t, prog, 300)
	before := cp.Mem.Read(0x100000, 8)
	var cs Cores
	c := cs.ResumeOoO(cp, prog, core.Baseline(), ooo.DefaultParams())
	if err := c.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if cp.Mem.Read(0x100000, 8) != before {
		t.Error("checkpoint memory mutated by a run")
	}
	// A second core from the same checkpoint reaches the same state.
	c2 := new(Cores).ResumeOoO(cp, prog, core.Strict(), ooo.DefaultParams())
	if err := c2.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < isa.NumGPR; i++ {
		if c.Reg(isa.Reg(i)) != c2.Reg(isa.Reg(i)) {
			t.Fatalf("x%d differs across reuses", i)
		}
	}
	// So does the first core resumed again: the reuse restores its own
	// image from the checkpoint's and leaves the checkpoint as it was.
	want := c.Regs()
	if c3 := cs.ResumeOoO(cp, prog, core.Strict(), ooo.DefaultParams()); c3 != c {
		t.Fatal("the first core was not reused")
	}
	if err := c.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if c.Regs() != want {
		t.Error("a reused core ended in another state")
	}
	if cp.Mem.Read(0x100000, 8) != before {
		t.Error("checkpoint memory mutated by a reused core's run")
	}
}

// TestResumeReusedCoreMatchesFresh: a core resumed from a checkpoint after
// it ran from another one (another workload, another policy, stopped with
// work in flight) must run exactly as a core built fresh at that
// checkpoint, on both cores: the reuse path the harness takes for every
// sampled cell, against the fresh build that New followed by Resume (the
// former NewFromState) gives.
func TestResumeReusedCoreMatchesFresh(t *testing.T) {
	type run struct {
		err             string
		cycles, retired uint64
		stats           stats.Counters
		regs            [isa.NumGPR]uint64
	}
	runOoO := func(c *ooo.Core) run {
		r := run{}
		if err := c.RunInsts(3_000, 10_000_000); err != nil {
			r.err = err.Error()
		}
		r.cycles, r.retired, r.stats, r.regs = c.Cycles(), c.Retired(), *c.Stats(), c.Regs()
		return r
	}
	runIO := func(m *inorder.Machine) run {
		r := run{}
		if err := m.RunInsts(3_000); err != nil {
			r.err = err.Error()
		}
		r.cycles, r.retired, r.stats, r.regs = m.Cycles(), m.Retired(), *m.Stats(), m.Emu().Regs
		return r
	}

	params, ioParams := ooo.DefaultParams(), inorder.DefaultParams()
	pols := core.All()
	var cs Cores
	var o *ooo.Core
	var io *inorder.Machine
	n := 0
	for _, name := range []string{"mcf", "gcc", "xz"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := s.Build(1 << 40)
		cps, err := TakeSeries(context.Background(), prog, 2_000, 5_000, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, cp := range append([]*Checkpoint{Start(prog)}, cps...) {
			pol := pols[n%len(pols)]
			n++
			want := runOoO(new(Cores).ResumeOoO(cp, prog, pol, params))
			prev := o
			o = cs.ResumeOoO(cp, prog, pol, params)
			if prev != nil && o != prev {
				t.Fatalf("%s/%d: a core built under the same params was not reused", name, i)
			}
			if got := runOoO(o); got != want {
				t.Errorf("%s/%d under %s: reused OoO core differs from fresh:\n got %+v\nwant %+v", name, i, pol.Name, got, want)
			}

			want = runIO(new(Cores).ResumeInOrder(cp, prog, ioParams))
			io = cs.ResumeInOrder(cp, prog, ioParams)
			if got := runIO(io); got != want {
				t.Errorf("%s/%d: reused in-order machine differs from fresh:\n got %+v\nwant %+v", name, i, got, want)
			}
		}
	}

	// A core built under other params is never reused.
	prog := workload.Random(7, 50)
	other := params
	other.ROBSize = 64
	if cs.ResumeOoO(Start(prog), prog, core.Baseline(), other) == o {
		t.Error("ResumeOoO reused a core built under other params")
	}
	otherIO := ioParams
	otherIO.MulLatency++
	if cs.ResumeInOrder(Start(prog), prog, otherIO) == io {
		t.Error("ResumeInOrder reused a machine built under other params")
	}
}

// TestCloneIndependence: every checkpoint of a series holds its own clone
// of the memory image, shared neither with the others nor with the
// emulator that kept running after it was captured.
func TestCloneIndependence(t *testing.T) {
	prog := workload.Random(44, 100)
	cps, err := TakeSeries(context.Background(), prog, 100, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := cps[1].Mem.Read(0x100000, 8)
	cps[0].Mem.Write(0x100000, 8, before+999)
	if cps[1].Mem.Read(0x100000, 8) != before {
		t.Error("two checkpoints of a series share memory")
	}
}

func ExampleTakeSeries() {
	prog := workload.Random(1, 100)
	cps, _ := TakeSeries(context.Background(), prog, 200, 50, 2)
	fmt.Println(cps[0].Retired, cps[1].Retired)
	// Output: 200 250
}
