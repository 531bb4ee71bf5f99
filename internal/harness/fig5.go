package harness

import (
	"fmt"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/ooo"
)

// Fig5Result quantifies the BTB misprediction overhead (paper Fig. 5): the
// total time of 64 back-to-back indirect calls when the BTB predicts every
// one correctly vs when every one mispredicts.
type Fig5Result struct {
	Calls      int
	HitCycles  uint64
	MissCycles uint64
}

// Penalty is the per-call mispredict cost — ~16 cycles in the paper's setup.
func (r Fig5Result) Penalty() int64 {
	if r.Calls == 0 {
		return 0
	}
	return (int64(r.MissCycles) - int64(r.HitCycles)) / int64(r.Calls)
}

// fig5Program times 16 back-to-back indirect calls through one call site,
// first with the BTB always predicting correctly (every call targets fA),
// then with every call mispredicting (targets alternate fA/fB, so the BTB —
// updated by each execution — always holds the other function). The
// per-call difference is the misprediction overhead: squash plus front-end
// redirect (paper: ~16 cycles).
func fig5Source() string {
	return `
        .data
        .org 0x100000
tgt:    .word64 fA, fB
        .org 0x240000
results: .space 16
        .text
main:   la   s0, tgt
        ld   s1, (s0)        # fA
        ld   s2, 8(s0)       # fB
        xor  s5, s1, s2      # fA ^ fB (toggle mask)
        li   s3, 8           # warm the BTB entry and the code paths
warm:   mv   a0, s1
        callr a0
        addi s3, s3, -1
        bne  s3, zero, warm
        fence

        # Phase 1: 64 calls, every prediction correct.
        li   s3, 64
        rdcycle s6
hits:   mv   a0, s1
        callr a0             # single fixed call site: the BTB entry
        addi s3, s3, -1
        bne  s3, zero, hits
        rdcycle s7
        fence
        sub  s7, s7, s6
        la   t5, results
        sd   s7, (t5)

        # Phase 2: 64 calls, targets alternate fA/fB so the BTB (updated by
        # each execution) always predicts the other target: every call
        # mispredicts and squashes.
        li   s3, 64
        li   s4, 0
        rdcycle s6
miss:   xor  a0, s1, s4
        xor  s4, s4, s5
        callr a0
        addi s3, s3, -1
        bne  s3, zero, miss
        rdcycle s7
        fence
        sub  s7, s7, s6
        la   t5, results
        sd   s7, 8(t5)
        halt

fA:     ret
fB:     ret
`
}

// MeasureFig5 runs the BTB-penalty micro-measurement on an insecure OoO
// core.
func MeasureFig5(params ooo.Params) (Fig5Result, error) {
	prog, err := asm.Assemble(fig5Source())
	if err != nil {
		return Fig5Result{}, err
	}
	c := ooo.NewFromProgram(prog, core.Baseline(), params)
	if err := c.Run(1_000_000); err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{
		Calls:      64,
		HitCycles:  c.Memory().Read(0x240000, 8),
		MissCycles: c.Memory().Read(0x240008, 8),
	}, nil
}

// RenderFig5 renders the measurement.
func RenderFig5(r Fig5Result) string {
	return fmt.Sprintf("Fig. 5 — BTB misprediction overhead\n\n"+
		"%d indirect calls, BTB predicted correctly: %4d cycles\n"+
		"%d indirect calls, every one mispredicted:  %4d cycles\n"+
		"squash + redirect penalty per call:         %4d cycles (paper: ~16)\n",
		r.Calls, r.HitCycles, r.Calls, r.MissCycles, r.Penalty())
}
