package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/mem"
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

func TestCaptureResumeEquivalence(t *testing.T) {
	// Uninterrupted execution and checkpoint-then-resume must reach
	// identical final state.
	for seed := int64(1); seed <= 5; seed++ {
		prog := workload.Random(seed, 200)
		full := runToHalt(t, emu.New(prog))

		cp, err := Take(prog, full.Retired/2)
		if err != nil {
			t.Fatal(err)
		}
		resumed := runToHalt(t, cp.Emu(prog))

		if resumed.Retired != full.Retired {
			t.Errorf("seed %d: retired %d, want %d", seed, resumed.Retired, full.Retired)
		}
		if resumed.Regs != full.Regs {
			t.Errorf("seed %d: register state diverged", seed)
		}
		for _, pn := range full.Mem.PageNums() {
			want := full.Mem.PageData(pn)
			got := resumed.Mem.PageData(pn)
			if !bytes.Equal(want, got) {
				t.Errorf("seed %d: page %#x diverged", seed, pn)
				break
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	prog := workload.Random(77, 150)
	cp, err := Take(prog, 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cp2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.PC != cp.PC || cp2.Retired != cp.Retired || cp2.Regs != cp.Regs || cp2.MSR != cp.MSR {
		t.Error("scalar state lost in round trip")
	}
	for _, pn := range cp.Mem.PageNums() {
		if !bytes.Equal(cp.Mem.PageData(pn), cp2.Mem.PageData(pn)) {
			t.Fatalf("page %#x lost in round trip", pn)
		}
	}
	// Both resume to the same final state.
	a := runToHalt(t, cp.Emu(prog))
	b := runToHalt(t, cp2.Emu(prog))
	if a.Regs != b.Regs || a.Retired != b.Retired {
		t.Error("loaded checkpoint resumes differently")
	}
}

func TestSaveLoadKernelPages(t *testing.T) {
	prog := workload.Random(3, 50)
	m := emu.New(prog)
	m.Mem.SetKernel(0x77000, 16)
	m.Mem.Write(0x77000, 8, 42)
	cp := Capture(m)
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cp2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cp2.Mem.KernelOnly(0x77000) {
		t.Error("kernel protection lost")
	}
	if cp2.Mem.Read(0x77000, 8) != 42 {
		t.Error("kernel data lost")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTACKPT-----"))); err == nil {
		t.Error("bad magic must be rejected")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must be rejected")
	}
}

// A page number past the 52-bit page space is rejected, as a data page
// (no address reaches it) and as a kernel page (shifted into an address it
// wraps, here onto page 0); the top page itself loads.
func TestLoadRejectsPagesOutsideAddressSpace(t *testing.T) {
	encode := func(kernel, data uint64) []byte {
		var buf bytes.Buffer
		buf.Write(magic[:])
		words := make([]uint64, 2+isa.NumGPR+isa.NumMSR)
		words = append(words, 1, kernel, 1, data)
		binary.Write(&buf, binary.LittleEndian, words)
		buf.Write(make([]byte, mem.PageSize))
		return buf.Bytes()
	}
	cp, err := Load(bytes.NewReader(encode(maxPageNum, maxPageNum)))
	if err != nil {
		t.Fatalf("top page rejected: %v", err)
	}
	if !cp.Mem.KernelOnly(maxPageNum<<mem.PageBits) || cp.Mem.KernelOnly(0) {
		t.Error("top page's kernel bit not where it was saved")
	}
	for _, c := range []struct {
		name         string
		kernel, data uint64
	}{
		{"kernel page", maxPageNum + 1, 0},
		{"data page", 0, maxPageNum + 1},
		{"kernel page wrapping onto page 5", 1<<52 + 5, 0},
		{"data page", 0, ^uint64(0)},
	} {
		if _, err := Load(bytes.NewReader(encode(c.kernel, c.data))); err == nil {
			t.Errorf("%s: kernel page %#x, data page %#x loaded", c.name, c.kernel, c.data)
		}
	}
}

func TestTakeRejectsHaltingPrograms(t *testing.T) {
	prog := workload.Random(5, 10)
	full := runToHalt(t, emu.New(prog))
	if _, err := Take(prog, full.Retired+100); err == nil {
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
		got := runToHalt(t, cp.Emu(prog)).Regs
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
		want, err := Take(prog, first+uint64(i)*stride)
		if err != nil {
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
	cp, err := Take(prog, full.Retired/2)
	if err != nil {
		t.Fatal(err)
	}
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
	cp, err := Take(prog, full.Retired/3)
	if err != nil {
		t.Fatal(err)
	}
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
	cp, err := Take(prog, 300)
	if err != nil {
		t.Fatal(err)
	}
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

func TestCloneIndependence(t *testing.T) {
	prog := workload.Random(44, 100)
	cp, err := Take(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	cl := cp.Clone()
	cl.Mem.Write(0x100000, 8, 999)
	if cp.Mem.Read(0x100000, 8) == 999 {
		t.Error("clone shares memory with the original")
	}
}

func ExampleTake() {
	prog := workload.Random(1, 100)
	cp, _ := Take(prog, 200)
	fmt.Println(cp.Retired)
	// Output: 200
}
