// Package checkpoint captures and restores architectural machine state —
// the role Lapidary's gdb-snapshot-to-gem5-checkpoint pipeline plays in the
// paper's methodology (§6.1). A checkpoint is taken by fast-forwarding the
// functional emulator (cheap), and any timing core can resume from it, so
// SMARTS measurement intervals can be distributed across a long
// execution without paying detailed-simulation cost between them.
//
// Checkpoints serialize to a compact binary format (magic, architectural
// registers, MSRs, then the populated memory pages), so sampled program
// phases can be stored and re-simulated later.
package checkpoint

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/mem"
	"nda/internal/ooo"
)

// Checkpoint is a complete architectural snapshot.
type Checkpoint struct {
	PC      uint64
	Retired uint64
	Regs    [isa.NumGPR]uint64
	MSR     [isa.NumMSR]uint64
	Mem     *mem.Memory
}

// Capture snapshots a running emulator (deep-copying its memory).
func Capture(m *emu.Machine) *Checkpoint {
	c := &Checkpoint{
		PC:      m.PC,
		Retired: m.Retired,
		Regs:    m.Regs,
		MSR:     m.MSR,
		Mem:     m.Mem.Clone(),
	}
	return c
}

// Start returns the state a fresh machine begins prog in: the program's
// data loaded into a new memory, at its entry point, nothing retired.
func Start(prog *isa.Program) *Checkpoint {
	m := mem.New()
	emu.Load(m, prog)
	return &Checkpoint{PC: prog.Entry, Mem: m}
}

// Take fast-forwards a fresh functional execution of prog by skipInsts
// instructions and captures the state there. It fails if the program halts
// or errors before the target.
func Take(prog *isa.Program, skipInsts uint64) (*Checkpoint, error) {
	m := emu.New(prog)
	if err := m.RunN(skipInsts); err != nil {
		return nil, fmt.Errorf("checkpoint: fast-forward: %w", err)
	}
	if m.Halted {
		return nil, fmt.Errorf("checkpoint: program halted after %d instructions, before the %d-instruction target", m.Retired, skipInsts)
	}
	return Capture(m), nil
}

// SeriesBudget bounds the memory images one TakeSeries call may hold, in
// bytes. Every checkpoint clones the whole image, so a series of n
// checkpoints of a P-page image holds n×P pages; a request for more fails
// instead of exhausting the host.
const SeriesBudget = 1 << 30

// TakeSeries fast-forwards once and captures n checkpoints at the given
// stride, amortizing the functional execution (the SMARTS sampling points).
// The fast-forward checks ctx every ffChunk instructions, so a cancelled
// caller stops it mid-way with ctx's error.
//
// The series fails closed against SeriesBudget: before the fast-forward
// when n copies of the program's loaded image already exceed it, and during
// capture once the pages captured so far would.
func TakeSeries(ctx context.Context, prog *isa.Program, first, stride uint64, n int) ([]*Checkpoint, error) {
	return takeSeries(ctx, prog, first, stride, n, SeriesBudget/mem.PageSize)
}

// takeSeries is TakeSeries with the budget given in pages.
func takeSeries(ctx context.Context, prog *isa.Program, first, stride uint64, n, maxPages int) ([]*Checkpoint, error) {
	m := emu.New(prog)
	if pages := m.Mem.MappedPages(); pages > 0 && n > maxPages/pages {
		return nil, fmt.Errorf("checkpoint: %d checkpoints of a %d-page image exceed the series budget of %d pages", n, pages, maxPages)
	}
	if err := fastForward(ctx, m, first); err != nil {
		return nil, fmt.Errorf("checkpoint: fast-forward: %w", err)
	}
	var out []*Checkpoint
	held := 0
	for i := 0; i < n; i++ {
		if m.Halted {
			return nil, fmt.Errorf("checkpoint: program halted after %d instructions (wanted %d samples)", m.Retired, n)
		}
		if held += m.Mem.MappedPages(); held > maxPages {
			return nil, fmt.Errorf("checkpoint: checkpoint %d of %d brings the series to %d pages, above its budget of %d", i+1, n, held, maxPages)
		}
		out = append(out, Capture(m))
		if i < n-1 {
			if err := fastForward(ctx, m, stride); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ffChunk is how many instructions the fast-forward runs between ctx checks.
const ffChunk = 1 << 16

// fastForward runs m for n more instructions (fewer if it halts) in chunks
// of ffChunk, returning ctx's error once ctx is done.
func fastForward(ctx context.Context, m *emu.Machine, n uint64) error {
	for target := m.Retired + n; !m.Halted && m.Retired < target; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.RunN(min(ffChunk, target-m.Retired)); err != nil {
			return err
		}
	}
	return nil
}

// Emu builds a functional machine resuming from the checkpoint. The
// checkpoint's memory is cloned, so the checkpoint stays reusable.
func (c *Checkpoint) Emu(prog *isa.Program) *emu.Machine {
	m := emu.NewWithMemory(prog, c.Mem.Clone())
	m.PC = c.PC
	m.Retired = c.Retired
	m.Regs = c.Regs
	m.MSR = c.MSR
	return m
}

// Clone deep-copies the checkpoint.
func (c *Checkpoint) Clone() *Checkpoint {
	out := *c
	out.Mem = c.Mem.Clone()
	return &out
}

// Serialization format:
//
//	magic "NDACKPT1"
//	u64 pc, u64 retired
//	32 x u64 regs, NumMSR x u64 msrs
//	u64 nKernelPages, then page numbers
//	u64 nPages, then (u64 pageNum, PageSize bytes) each

var magic = [8]byte{'N', 'D', 'A', 'C', 'K', 'P', 'T', '1'}

// maxPageNum is the number of the top page of the 64-bit address space.
const maxPageNum = 1<<(64-mem.PageBits) - 1

// Save writes the checkpoint to w.
func (c *Checkpoint) Save(w io.Writer) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	write := func(vs ...uint64) error {
		for _, v := range vs {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(c.PC, c.Retired); err != nil {
		return err
	}
	if err := write(c.Regs[:]...); err != nil {
		return err
	}
	if err := write(c.MSR[:]...); err != nil {
		return err
	}
	kp := c.Mem.KernelPages()
	if err := write(uint64(len(kp))); err != nil {
		return err
	}
	if err := write(kp...); err != nil {
		return err
	}
	pages := c.Mem.PageNums()
	if err := write(uint64(len(pages))); err != nil {
		return err
	}
	for _, pn := range pages {
		if err := write(pn); err != nil {
			return err
		}
		if _, err := w.Write(c.Mem.PageData(pn)); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a checkpoint written by Save. It rejects a bad magic, a short
// read, and a page number outside the address space.
func Load(r io.Reader) (*Checkpoint, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", m[:])
	}
	read := func(vs ...*uint64) error {
		for _, v := range vs {
			if err := binary.Read(r, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	// A page number past the address space would name a page no address
	// reaches, or wrap onto a low page when shifted into an address.
	readPageNum := func(pn *uint64) error {
		if err := read(pn); err != nil {
			return err
		}
		if *pn > maxPageNum {
			return fmt.Errorf("checkpoint: page number %#x is outside the address space", *pn)
		}
		return nil
	}
	c := &Checkpoint{Mem: mem.New()}
	if err := read(&c.PC, &c.Retired); err != nil {
		return nil, err
	}
	for i := range c.Regs {
		if err := read(&c.Regs[i]); err != nil {
			return nil, err
		}
	}
	for i := range c.MSR {
		if err := read(&c.MSR[i]); err != nil {
			return nil, err
		}
	}
	var nk uint64
	if err := read(&nk); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nk; i++ {
		var pn uint64
		if err := readPageNum(&pn); err != nil {
			return nil, err
		}
		c.Mem.SetKernel(pn<<mem.PageBits, mem.PageSize)
	}
	var np uint64
	if err := read(&np); err != nil {
		return nil, err
	}
	buf := make([]byte, mem.PageSize)
	for i := uint64(0); i < np; i++ {
		var pn uint64
		if err := readPageNum(&pn); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		c.Mem.SetPageData(pn, buf)
	}
	return c, nil
}

// Cores is one worker's timing state: one out-of-order core and one
// in-order machine, each with its own memory image, built by the first
// resume that needs it and Reset for every later one. Its methods are the
// one way to bring a timing core to a checkpoint. A Cores is not safe for
// concurrent use; the zero value is ready.
type Cores struct {
	o  *ooo.Core
	io *inorder.Machine
}

// ResumeOoO returns the out-of-order core resuming from cp on prog under
// the given policy and params. The core cs holds is reused when it was
// built under p: its memory image becomes a copy of cp's and it is Reset
// onto it, which leaves it exactly as a new core would be. Otherwise a new
// core on a clone of cp's memory takes its place. cp stays reusable.
func (cs *Cores) ResumeOoO(cp *Checkpoint, prog *isa.Program, pol core.Policy, p ooo.Params) *ooo.Core {
	if cs.o == nil || cs.o.Params() != p {
		cs.o = ooo.New(prog, cp.Mem.Clone(), pol, p)
	} else {
		m := cs.o.Memory()
		m.CopyFrom(cp.Mem)
		cs.o.Reset(prog, m, pol)
	}
	cs.o.Resume(cp.Regs, cp.MSR, cp.PC)
	return cs.o
}

// ResumeInOrder is ResumeOoO for the in-order machine.
func (cs *Cores) ResumeInOrder(cp *Checkpoint, prog *isa.Program, p inorder.Params) *inorder.Machine {
	if cs.io == nil || cs.io.Params() != p {
		cs.io = inorder.New(prog, cp.Mem.Clone(), p)
	} else {
		run := cs.io.Emu().Mem
		run.CopyFrom(cp.Mem)
		cs.io.Reset(prog, run)
	}
	e := cs.io.Emu()
	e.PC = cp.PC
	e.Regs = cp.Regs
	e.MSR = cp.MSR
	return cs.io
}
