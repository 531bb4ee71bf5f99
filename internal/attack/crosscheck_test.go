package attack_test

import (
	"context"
	"testing"

	"nda/internal/attack"
	"nda/internal/gadget"
	"nda/internal/ooo"
)

// TestStaticDynamicCrossValidation ties the repo's three oracles together:
//
//   - the static analyzer (internal/gadget) predicts, per attack and policy,
//     whether the measured channel leaks;
//   - the dynamic attack matrix measures whether the PoC actually recovers
//     the secret on a simulated core;
//   - the runtime propagation sanitizer (ooo.Params.Sanitize) asserts,
//     cycle by cycle, that no consumer ever issued on a value whose
//     producer was unsafe at broadcast-defer time.
//
// The test requires exact agreement between the first two for every
// (attack, policy) cell, and zero sanitizer violations everywhere — i.e.
// every "blocked" verdict is enforced by the pipeline mechanism the policy
// claims, not by accident.
func TestStaticDynamicCrossValidation(t *testing.T) {
	params := ooo.DefaultParams()
	params.Sanitize = true
	cells, err := attack.MatrixCtx(context.Background(), params, 0)
	if err != nil {
		t.Fatal(err)
	}

	static := map[attack.Kind]map[string]bool{}
	for _, k := range attack.All() {
		p, err := attack.Program(k)
		if err != nil {
			t.Fatal(err)
		}
		an := gadget.Analyze(p, gadget.Config{SecretRegs: attack.SecretRegs(k)})
		static[k] = an.LeaksByChannel[k.Channel()]
	}

	for _, c := range cells {
		if c.Outcome.SanitizerViolations != 0 {
			t.Errorf("%s under %s: %d sanitizer violations", c.Attack, c.Policy, c.Outcome.SanitizerViolations)
		}
		if c.Policy == "In-Order" {
			continue // the in-order core has no speculation for the analyzer to model
		}
		if got := static[c.Attack][c.Policy]; got != c.Outcome.Leaked {
			t.Errorf("%s under %s: static analyzer says leaks=%v, dynamic PoC measured leaked=%v",
				c.Attack, c.Policy, got, c.Outcome.Leaked)
		}
	}
}
