package gadget

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nda/internal/analysis"
	"nda/internal/attack"
	"nda/internal/isa"
	"nda/internal/par"
	"nda/internal/workload"
)

// builtinIters is the loop count workload kernels are built with for static
// analysis. The iteration count only changes one loop-bound immediate, never
// the instruction structure, so any fixed value yields the same gadgets;
// fixing it keeps the golden census byte-stable.
const builtinIters = 4

// Input is one named program for the census.
type Input struct {
	Name  string
	Group string // "attack" or "workload"
	Prog  *isa.Program
	Cfg   Config
}

// Builtins returns every attack snippet and every workload kernel, in a
// fixed order: attacks in Table 1 order, then workloads in Fig. 7 order.
func Builtins() ([]Input, error) {
	var ins []Input
	for _, k := range attack.All() {
		p, err := attack.Program(k)
		if err != nil {
			return nil, fmt.Errorf("gadget: building attack %s: %w", k, err)
		}
		ins = append(ins, Input{
			Name:  string(k),
			Group: "attack",
			Prog:  p,
			Cfg:   Config{SecretRegs: attack.SecretRegs(k)},
		})
	}
	for _, s := range workload.All() {
		ins = append(ins, Input{
			Name:  s.Name,
			Group: "workload",
			Prog:  s.Build(builtinIters),
		})
	}
	return ins, nil
}

// BuildReport analyzes every input on up to workers goroutines. Each result
// lands in the slot its index addresses, so the report is identical for any
// worker count.
func BuildReport(ins []Input, workers int) (*Report, error) {
	r := &Report{Window: DefaultWindow, Programs: make([]ProgramReport, len(ins))}
	err := par.RunCtx(context.Background(), len(ins), workers, func(i int) error {
		in := ins[i]
		an := Analyze(in.Prog, in.Cfg)
		r.Programs[i] = NewProgramReport(in.Name, in.Group, an, in.Group == "attack")
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Check validates the census against the repo's ground truth: every attack
// snippet's static per-policy verdict must match attack.Expected (Table 2),
// and no workload kernel may contain a chosen-code gadget (workloads never
// touch kernel memory or privileged MSRs). Failures come back as findings
// in the shared analysis format, so ndalint and ndavet report identically.
func Check(r *Report) []analysis.Finding {
	var fails []analysis.Finding
	fail := func(pass, program, msg string) {
		fails = append(fails, analysis.Finding{
			File:    program,
			Tool:    "ndalint",
			Pass:    pass,
			Message: msg,
		})
	}
	for i := range r.Programs {
		pr := &r.Programs[i]
		switch pr.Group {
		case "attack":
			// Compare on the channel the PoC's recover phase measures: a
			// d-cache PoC can statically expose a BTB gadget too (e.g.
			// spectre-v2's indirect call), which the dynamic harness does
			// not time.
			kind := attack.Kind(pr.Name)
			exp := attack.Expected[kind]
			leaks := pr.ChannelLeaks[kind.Channel()]
			for _, pol := range policyOrder() {
				if leaks[pol] != exp[pol] {
					fail("table2", pr.Name, fmt.Sprintf(
						"under %s (%s channel): static analysis says leaks=%v, Table 2 says %v",
						pol, kind.Channel(), leaks[pol], exp[pol]))
				}
			}
		case "workload":
			keys := make([]string, 0, len(pr.Counts))
			for key := range pr.Counts {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				if pr.Counts[key] > 0 && strings.HasPrefix(key, "chosen-code/") {
					fail("workload", pr.Name, fmt.Sprintf(
						"%d chosen-code gadgets in a workload that never touches privileged state", pr.Counts[key]))
				}
			}
		}
	}
	return fails
}
