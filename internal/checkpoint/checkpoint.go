// Package checkpoint captures and restores architectural machine state —
// the role Lapidary's gdb-snapshot-to-gem5-checkpoint pipeline plays in the
// paper's methodology (§6.1). A checkpoint is taken by fast-forwarding the
// functional emulator (cheap), and any timing core can resume from it, so
// SMARTS measurement intervals can be distributed across a long
// execution without paying detailed-simulation cost between them.
//
// Checkpoints live in memory only: a sweep takes each workload's series
// once and resumes every cell from it, so none is ever written to disk.
package checkpoint

import (
	"context"
	"fmt"

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
