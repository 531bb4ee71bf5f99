package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Class is a package's architectural role. It decides which ndavet passes
// apply and which standard-library dependencies are off limits.
type Class string

const (
	// Deterministic packages are the simulator core: byte-identical
	// outputs are their contract, so wall-clock reads, global randomness,
	// mutable package state, and any network/OS dependency are findings.
	Deterministic Class = "deterministic"
	// Concurrency packages (internal/par) are the leaf-like scheduling
	// utilities under the deterministic engine: same stdlib restrictions
	// as deterministic code, plus locklint.
	Concurrency Class = "concurrency"
	// Service packages (serve, dist) own goroutines, sockets, and locks;
	// locklint applies, the OS/network stdlib is fair game.
	Service Class = "service"
	// Tooling packages host the analyzers themselves; they read the
	// filesystem but must not reach the network.
	Tooling Class = "tooling"
	// CLI packages are the command mains and their flag/signal plumbing.
	CLI Class = "cli"
	// Example packages are the documentation programs under examples/.
	Example Class = "example"
)

// Rule declares one package's layer contract: its class and the exact set
// of module-internal packages it may import. Imports outside Allow — and,
// for restricted classes, imports of the forbidden stdlib surface — are
// layerlint findings.
type Rule struct {
	Path  string   // import path, e.g. "nda/internal/ooo"
	Class Class    // architectural role
	Allow []string // module-internal imports this package may use
}

// deniedStd lists the stdlib import prefixes each restricted class must
// not depend on. A package importing "net/http" matches the "net" prefix.
var deniedStd = map[Class][]string{
	Deterministic: {"net", "os", "syscall", "time"},
	Concurrency:   {"net", "os", "syscall", "time"},
	Tooling:       {"net", "syscall"},
}

// DefaultContract is the repo's declared import DAG: every package in the
// module, bottom layer first. Editing it without regenerating the README
// table (make contract-check / ndavet -contract) fails CI.
//
// The ordering convention mirrors the architecture: ISA and machine-state
// leaves, then the cores, then the evaluation drivers, then the service
// and CLI shells around them.
var DefaultContract = []Rule{
	// Leaves: no module-internal imports at all.
	{Path: "nda/internal/isa", Class: Deterministic},
	{Path: "nda/internal/bpred", Class: Deterministic},
	{Path: "nda/internal/cache", Class: Deterministic},
	{Path: "nda/internal/mem", Class: Deterministic},
	{Path: "nda/internal/stats", Class: Deterministic},
	{Path: "nda/internal/par", Class: Concurrency},
	{Path: "nda/internal/analysis", Class: Tooling},

	// ISA consumers.
	{Path: "nda/internal/asm", Class: Deterministic, Allow: []string{"nda/internal/isa"}},
	{Path: "nda/internal/core", Class: Deterministic, Allow: []string{"nda/internal/isa"}},
	{Path: "nda/internal/workload", Class: Deterministic, Allow: []string{"nda/internal/isa"}},
	{Path: "nda/internal/emu", Class: Deterministic, Allow: []string{"nda/internal/isa", "nda/internal/mem"}},

	// Cores.
	{Path: "nda/internal/inorder", Class: Deterministic, Allow: []string{
		"nda/internal/cache", "nda/internal/emu", "nda/internal/isa", "nda/internal/mem",
		"nda/internal/stats"}},
	{Path: "nda/internal/ooo", Class: Deterministic, Allow: []string{
		"nda/internal/bpred", "nda/internal/cache", "nda/internal/core", "nda/internal/emu",
		"nda/internal/isa", "nda/internal/mem", "nda/internal/stats"}},
	{Path: "nda/internal/checkpoint", Class: Deterministic, Allow: []string{
		"nda/internal/core", "nda/internal/emu", "nda/internal/inorder", "nda/internal/isa",
		"nda/internal/mem", "nda/internal/ooo"}},
	{Path: "nda/internal/trace", Class: Deterministic, Allow: []string{"nda/internal/ooo"}},

	// Evaluation drivers.
	{Path: "nda/internal/progen", Class: Deterministic, Allow: []string{
		"nda/internal/asm", "nda/internal/isa"}},
	{Path: "nda/internal/attack", Class: Deterministic, Allow: []string{
		"nda/internal/asm", "nda/internal/checkpoint", "nda/internal/core", "nda/internal/inorder",
		"nda/internal/isa", "nda/internal/ooo", "nda/internal/par"}},
	{Path: "nda/internal/gadget", Class: Deterministic, Allow: []string{
		"nda/internal/analysis", "nda/internal/attack", "nda/internal/core", "nda/internal/isa",
		"nda/internal/par", "nda/internal/workload"}},
	{Path: "nda/internal/diffuzz", Class: Deterministic, Allow: []string{
		"nda/internal/core", "nda/internal/emu", "nda/internal/gadget", "nda/internal/isa",
		"nda/internal/mem", "nda/internal/ooo", "nda/internal/par", "nda/internal/progen"}},
	{Path: "nda/internal/harness", Class: Deterministic, Allow: []string{
		"nda/internal/asm", "nda/internal/cache", "nda/internal/checkpoint", "nda/internal/core",
		"nda/internal/inorder", "nda/internal/isa", "nda/internal/ooo", "nda/internal/par",
		"nda/internal/stats", "nda/internal/workload"}},

	// Public facade.
	{Path: "nda", Class: Deterministic, Allow: []string{
		"nda/internal/asm", "nda/internal/attack", "nda/internal/checkpoint", "nda/internal/core",
		"nda/internal/harness", "nda/internal/inorder", "nda/internal/isa", "nda/internal/ooo",
		"nda/internal/trace", "nda/internal/workload"}},

	// Service shell.
	{Path: "nda/internal/store", Class: Service},
	{Path: "nda/internal/tenant", Class: Service},
	{Path: "nda/internal/dist", Class: Service, Allow: []string{"nda/internal/par"}},
	{Path: "nda/internal/serve", Class: Service, Allow: []string{
		"nda/internal/attack", "nda/internal/core", "nda/internal/dist", "nda/internal/gadget",
		"nda/internal/harness", "nda/internal/ooo", "nda/internal/par", "nda/internal/store",
		"nda/internal/tenant", "nda/internal/workload"}},
	{Path: "nda/internal/load", Class: Service, Allow: []string{
		"nda/internal/serve", "nda/internal/tenant"}},

	// CLI shell.
	{Path: "nda/internal/cliutil", Class: CLI, Allow: []string{
		"nda/internal/dist", "nda/internal/workload"}},
	{Path: "nda/cmd/ndasim", Class: CLI, Allow: []string{
		"nda/internal/asm", "nda/internal/cliutil", "nda/internal/core", "nda/internal/inorder",
		"nda/internal/isa", "nda/internal/ooo", "nda/internal/trace", "nda/internal/workload"}},
	{Path: "nda/cmd/ndabench", Class: CLI, Allow: []string{
		"nda/internal/cliutil", "nda/internal/core", "nda/internal/dist", "nda/internal/harness",
		"nda/internal/ooo", "nda/internal/serve", "nda/internal/workload"}},
	{Path: "nda/cmd/ndattack", Class: CLI, Allow: []string{
		"nda/internal/attack", "nda/internal/cliutil", "nda/internal/core", "nda/internal/harness",
		"nda/internal/ooo"}},
	{Path: "nda/cmd/ndalint", Class: CLI, Allow: []string{
		"nda/internal/analysis", "nda/internal/diffuzz", "nda/internal/gadget"}},
	{Path: "nda/cmd/ndavet", Class: CLI, Allow: []string{"nda/internal/analysis", "nda/internal/cliutil"}},
	{Path: "nda/cmd/ndaserve", Class: CLI, Allow: []string{
		"nda/internal/cliutil", "nda/internal/dist", "nda/internal/serve", "nda/internal/store",
		"nda/internal/tenant"}},
	{Path: "nda/cmd/ndaload", Class: CLI, Allow: []string{
		"nda/internal/cliutil", "nda/internal/load", "nda/internal/serve", "nda/internal/tenant"}},
	{Path: "nda/cmd/benchjson", Class: CLI},

	// Documentation programs.
	{Path: "nda/examples/quickstart", Class: Example, Allow: []string{"nda"}},
	{Path: "nda/examples/spectre", Class: Example, Allow: []string{"nda"}},
	{Path: "nda/examples/btbchannel", Class: Example, Allow: []string{"nda"}},
	{Path: "nda/examples/policysweep", Class: Example, Allow: []string{"nda"}},
}

// contractIndex maps a contract by import path, rejecting duplicates.
func contractIndex(contract []Rule) (map[string]*Rule, error) {
	idx := make(map[string]*Rule, len(contract))
	for i := range contract {
		r := &contract[i]
		if _, dup := idx[r.Path]; dup {
			return nil, fmt.Errorf("layer contract lists %s twice", r.Path)
		}
		idx[r.Path] = r
	}
	return idx, nil
}

// contractCycle looks for a cycle in the declared Allow graph itself — a
// contract that permits a cycle is wrong even before any code exists to
// exploit it. It returns the cycle's members as "a, b", or "" if acyclic.
func contractCycle(contract []Rule) string {
	idx, err := contractIndex(contract)
	if err != nil {
		return err.Error()
	}
	roots := make([]string, len(contract))
	for i := range contract {
		roots[i] = contract[i].Path
	}
	allow := func(path string) []string {
		if r := idx[path]; r != nil {
			return r.Allow
		}
		return nil
	}
	for _, c := range sccs(roots, allow) {
		if cyclic(c, allow) {
			return strings.Join(c, ", ")
		}
	}
	return ""
}

// ContractTable renders the contract as the markdown table embedded in the
// README between the ndavet:contract markers. make contract-check diffs
// the two, so the in-source contract and the documented one cannot drift.
func ContractTable(contract []Rule) string {
	var b strings.Builder
	b.WriteString("| Package | Class | May import (module-internal) |\n")
	b.WriteString("|---|---|---|\n")
	for i := range contract {
		r := &contract[i]
		deps := "—"
		if len(r.Allow) > 0 {
			short := make([]string, len(r.Allow))
			for j, d := range r.Allow {
				short[j] = "`" + strings.TrimPrefix(d, "nda/") + "`"
			}
			sort.Strings(short)
			deps = strings.Join(short, ", ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", strings.TrimPrefix(r.Path, "nda/"), r.Class, deps)
	}
	return b.String()
}
