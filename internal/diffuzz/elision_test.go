package diffuzz

import (
	"errors"
	"fmt"
	"testing"

	"nda/internal/core"
	"nda/internal/mem"
	"nda/internal/ooo"
	"nda/internal/progen"
)

// TestElisionExact simulates every timing run runSeed takes over instead of
// simulating, on a new core without shadows, and requires it to match the
// run taken over: channel trace, sanitizer count, error, cycles and
// committed instructions. The seeds are the first of the fuzz benchmark's
// input; they must take over runs of both kinds, so a lost shadow decision
// point or a lost half of the secret watch shows here as a mismatch.
func TestElisionExact(t *testing.T) {
	seeds := Seeds(10_000, 80)
	tm := new(timingCore)
	compared := 0
	for _, seed := range seeds {
		simulated := map[string]bool{}
		record := func(p *progen.Program, base *mem.Memory, pol core.Policy, shadows []core.Rules, sec secrets, evs []ooo.ChannelEvent) timingRun {
			simulated[fmt.Sprint(pol.Name, sec)] = true
			return tm.run(p, base, pol, shadows, sec, evs)
		}
		if r := tm.runSeed(seed, record); r.Failure != "" {
			t.Fatalf("seed %d: %s", seed, r.Failure)
		}
		p, err := progen.Gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, pol := range policies {
			for s, sec := range [2]secrets{secretsA, secretsB} {
				if simulated[fmt.Sprint(pol.Name, sec)] {
					continue
				}
				compared++
				got, same := freshTiming(p, nil, pol, nil, sec, nil), tm.runs[i][s]
				switch {
				case fmt.Sprint(got.err) != fmt.Sprint(same.err):
					t.Errorf("seed %d under %s, secret %#x: err %v, taken over from a run with err %v", seed, pol.Name, sec.fill, got.err, same.err)
				case got.san != same.san:
					t.Errorf("seed %d under %s, secret %#x: %d sanitizer violations, taken over from a run with %d", seed, pol.Name, sec.fill, got.san, same.san)
				case got.cycles != same.cycles || got.retired != same.retired:
					t.Errorf("seed %d under %s, secret %#x: %d cycles, %d committed; taken over from a run with %d, %d",
						seed, pol.Name, sec.fill, got.cycles, got.retired, same.cycles, same.retired)
				case !tracesEqual(got.trace, same.trace):
					t.Errorf("seed %d under %s, secret %#x: trace differs from the run taken over: %s",
						seed, pol.Name, sec.fill, traceDiff(got.trace, same.trace))
				}
			}
		}
	}
	if tm.elided[policyRepeat] == 0 || tm.elided[secretRepeat] == 0 {
		t.Fatalf("runs taken over: %d policy repeats, %d secret repeats; want both kinds",
			tm.elided[policyRepeat], tm.elided[secretRepeat])
	}
	if n := tm.elided[policyRepeat] + tm.elided[secretRepeat]; compared != n {
		t.Fatalf("compared %d runs, but %d were taken over", compared, n)
	}
	t.Logf("%d runs over %d seeds taken over and matched: %d policy repeats, %d secret repeats",
		compared, len(seeds), tm.elided[policyRepeat], tm.elided[secretRepeat])
}

// A run that errored is never taken over, by a later policy's run or by
// its own secret-B twin, even where no shadow diverged and no secret was
// read.
func TestErroringRunNotRepeated(t *testing.T) {
	tm := &timingCore{runs: make([][2]timingRun, len(policies))}
	failed := errors.New("ooo: exceeded cycles")
	tm.runs[0] = [2]timingRun{{err: failed}, {err: failed}}
	if r, _ := tm.repeated(1, 0); r != nil {
		t.Error("a later policy's run repeats an erroring run")
	}
	tm.runs[0] = [2]timingRun{{diverged: ^uint64(0)}, {diverged: ^uint64(0)}}
	tm.runs[1][0] = timingRun{err: failed}
	if r, _ := tm.repeated(1, 1); r != nil {
		t.Error("a secret-B run repeats its erroring secret-A twin")
	}
	tm.runs[1][0] = timingRun{}
	if r, kind := tm.repeated(1, 1); r != &tm.runs[1][0] || kind != secretRepeat {
		t.Error("a secret-B run does not repeat its clean secret-A twin")
	}
}
