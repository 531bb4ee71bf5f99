package ooo

import (
	"slices"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/isa"
)

func collectTrace(t *testing.T, src string, pol core.Policy, secret uint64) []ChannelEvent {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := NewFromProgram(p, pol, DefaultParams())
	var evs []ChannelEvent
	c.TraceChannel = func(ev ChannelEvent) { evs = append(evs, ev) }
	var msr [isa.NumMSR]uint64
	msr[isa.MSRSecretKey] = secret
	c.Resume([isa.NumGPR]uint64{}, msr, p.Entry)
	if err := c.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	return evs
}

// A transmitter that consumes the faulting value DIRECTLY — no intermediate
// producer — leaks through a one-cycle gap if the core broadcasts a deferred
// faulting head before delivering its fault: the wake-up lands, the
// dependent load issues and fills the cache, and only then does the squash
// arrive. The fault must deliver first. The secret is the lbu's address, so
// two runs with different planted MSR secrets must produce byte-identical
// channel traces under every policy that claims to block LazyFP-style
// chosen-code leaks, and must differ under the policies Table 2 says leak.
const faultDirectSrc = `
main:   la    t0, handler
        wrmsr 0x0, t0
        rdmsr t1, 0x10
        lbu   t2, 0(t1)
resume: halt
handler:
        j     resume
`

func TestFaultDeliversBeforeBroadcast(t *testing.T) {
	leak := map[string]bool{
		"OoO":                true,
		"Permissive":         true,
		"Permissive+BR":      true,
		"Strict":             true,
		"Strict+BR":          true,
		"RestrictedLoads":    false,
		"FullProtection":     false,
		"InvisiSpec-Spectre": true,
		"InvisiSpec-Future":  false,
	}
	for _, pol := range core.All() {
		a := collectTrace(t, faultDirectSrc, pol, 0x200100)
		b := collectTrace(t, faultDirectSrc, pol, 0x204180)
		if eq := slices.Equal(a, b); eq != !leak[pol.Name] {
			t.Errorf("%s: channel traces equal=%v, want leak=%v (%d/%d events)",
				pol.Name, eq, leak[pol.Name], len(a), len(b))
		}
	}
}

// Store-to-load forwarding under the sanitizer: a correct pipeline forwards
// only broadcast data, so check 4 (forward-before-broadcast) must stay
// silent under every policy while the forwarded value still arrives.
func TestForwardingSanitizerClean(t *testing.T) {
	const src = `
main:   li   t0, 0x2000
        li   t1, 77
        sd   t1, 0(t0)
        ld   t2, 0(t0)
        addi t3, t2, 1
        halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range core.All() {
		params := DefaultParams()
		params.Sanitize = true
		c := NewFromProgram(p, pol, params)
		if err := c.Run(maxCycles); err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if n := c.SanitizerViolations(); n != 0 {
			t.Errorf("%s: %d sanitizer violations: %v", pol.Name, n, c.SanitizerLog())
		}
		if got := c.Reg(isa.RegT3); got != 78 {
			t.Errorf("%s: t3 = %d, want 78", pol.Name, got)
		}
	}
}
