package ooo_test

import (
	"fmt"
	"slices"
	"testing"

	"nda/internal/asm"
	"nda/internal/core"
	"nda/internal/isa"
	"nda/internal/ooo"
)

// shadowed runs prog under running with every other policy shadowed and
// returns the names of the shadows that diverged, with the run.
func shadowed(t *testing.T, prog *isa.Program, params ooo.Params, running core.Policy) ([]string, *runRecord) {
	t.Helper()
	var others []core.Policy
	var rules []core.Rules
	for _, pol := range core.All() {
		if pol.Name != running.Name {
			others = append(others, pol)
			rules = append(rules, core.Compile(pol.Gates))
		}
	}
	c := ooo.New(prog, loaded(prog), running, params)
	c.SetShadows(rules)
	r := record(c, 0)
	if r.err != "" {
		t.Fatal(r.err)
	}
	var names []string
	for i, pol := range others {
		if c.Diverged()&(1<<i) != 0 {
			names = append(names, pol.Name)
		}
	}
	return names, r
}

// Each program, run under the baseline, makes the shadows diverge at one
// decision point the pipeline asks the running rules, and at no other: the
// ALU op that completes under an unresolved branch at the
// completing-instruction broadcast check, the one that overflows the single
// broadcast port into the deferred-candidate check, the load that completes
// as the eldest instruction at the eldest-commit wait, and the load with no
// destination register at the fill-visibility choice. Two programs make
// none diverge: straight-line ALU code, and a guarded op that completes
// after its guard resolved, which the resolve-walk must have cleared for
// the shadows that read it. The last runs under InvisiSpec-Spectre: a
// guarded load that survives is invisible under InvisiSpec-Future too, but
// the two expose it at different points, so every shadow diverges. Every
// shadow that did not diverge must then run the program exactly as the
// running policy did.
func TestShadowDecisionPoints(t *testing.T) {
	onePort := ooo.DefaultParams()
	onePort.BroadcastPorts = 1
	strict := []string{"Strict", "Strict+BR", "FullProtection"}
	const guardedLoad = `
        .data
        .org 0x40000
word:   .word64 7
        .text
main:   la   a0, word
        li   t0, 1
        div  t1, t0, t0
        beq  t1, zero, skip
        ld   %s, (a0)
skip:   halt
`
	for _, tc := range []struct {
		name    string
		src     string
		params  ooo.Params
		running core.Policy
		want    []string
	}{
		{"straight-line", `
main:   li   t0, 1
        addi t1, t0, 2
        add  t2, t1, t0
        mul  t3, t2, t1
        halt
`, ooo.DefaultParams(), core.Baseline(), nil},
		{"resolved-guard", `
main:   li   t0, 1
        div  t1, t0, t0
        beq  t0, zero, skip
        add  t2, t1, t1
skip:   halt
`, ooo.DefaultParams(), core.Baseline(), nil},
		{"completion-broadcast", `
main:   li   t0, 1
        div  t1, t0, t0
        beq  t1, zero, skip
        addi t2, t0, 1
skip:   halt
`, ooo.DefaultParams(), core.Baseline(), strict},
		{"deferred-broadcast", `
main:   li   t0, 1
        div  t1, t0, t0
        addi t3, t0, 3
        beq  t1, zero, skip
        addi t2, t0, 1
skip:   halt
`, onePort, core.Baseline(), strict},
		{"eldest-commit", `
        .data
        .org 0x40000
word:   .word64 7
        .text
main:   la   a0, word
        ld   t0, (a0)
        halt
`, ooo.DefaultParams(), core.Baseline(), []string{"RestrictedLoads", "FullProtection", "InvisiSpec-Future"}},
		{"fill", fmt.Sprintf(guardedLoad, "zero"), ooo.DefaultParams(), core.Baseline(),
			[]string{"InvisiSpec-Spectre", "InvisiSpec-Future"}},
		{"fill-mode", fmt.Sprintf(guardedLoad, "t2"), ooo.DefaultParams(), core.InvisiSpecSpectre(),
			[]string{"OoO", "Permissive", "Permissive+BR", "Strict", "Strict+BR", "RestrictedLoads", "FullProtection", "InvisiSpec-Future"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			got, ran := shadowed(t, prog, tc.params, tc.running)
			if !slices.Equal(got, tc.want) {
				t.Errorf("diverged shadows %v, want %v", got, tc.want)
			}
			for _, pol := range core.All() {
				if pol.Name == tc.running.Name || slices.Contains(got, pol.Name) {
					continue
				}
				r := record(ooo.New(prog, loaded(prog), pol, tc.params), 0)
				if d := r.diff(ran); d != "" {
					t.Errorf("%s did not diverge, but its run differs from %s's: %s", pol.Name, tc.running.Name, d)
				}
			}
		})
	}
}

// Reset disarms the shadows and the secret watch, and a core that arms
// neither reports nothing.
func TestResetDisarmsShadows(t *testing.T) {
	prog, err := asm.Assemble(`
        .data
        .org 0x40000
word:   .word64 7
        .text
main:   la   a0, word
        ld   t0, (a0)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	c := ooo.New(prog, loaded(prog), core.Baseline(), ooo.DefaultParams())
	c.SetShadows([]core.Rules{core.Compile(core.LoadRestrict().Gates)})
	c.WatchSecrets([]ooo.Span{{Lo: 0x40000, Hi: 0x40008}}, isa.MSRSecretKey)
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if c.Diverged() != 1 || !c.ReadSecret() {
		t.Fatalf("armed run: Diverged %b, ReadSecret %v; want 1, true", c.Diverged(), c.ReadSecret())
	}
	c.Reset(prog, loaded(prog), core.Baseline())
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if c.Diverged() != 0 || c.ReadSecret() {
		t.Errorf("after Reset: Diverged %b, ReadSecret %v; want 0, false", c.Diverged(), c.ReadSecret())
	}
}

// The secret watch sees a load that overlaps a watched span by one byte,
// misses one that ends just below it, and sees an RDMSR of the watched MSR
// that faults, as a user-mode read of a privileged MSR does.
func TestWatchSecrets(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want bool
	}{
		{"below", `
        .data
        .org 0x40000
word:   .word64 7
        .text
main:   la   a0, word
        ld   t0, (a0)
        halt
`, false},
		{"overlap", `
        .data
        .org 0x40000
word:   .word64 7
        .text
main:   la   a0, word
        ld   t0, 1(a0)
        halt
`, true},
		{"rdmsr", `
main:   la   t0, handler
        wrmsr 0x0, t0
        rdmsr t1, 0x10
        halt
handler:
        halt
`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			c := ooo.New(prog, loaded(prog), core.Baseline(), ooo.DefaultParams())
			c.WatchSecrets([]ooo.Span{{Lo: 0x40008, Hi: 0x40010}}, isa.MSRSecretKey)
			if err := c.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if c.ReadSecret() != tc.want {
				t.Errorf("ReadSecret = %v, want %v", c.ReadSecret(), tc.want)
			}
		})
	}
}
