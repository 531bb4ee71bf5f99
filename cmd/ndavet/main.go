// Command ndavet runs the repo's source-level static analyzer: nine
// passes over the whole module proving the determinism, layering,
// allocation, and cancellation invariants the golden sweep tests check
// at runtime, and that no code is dead.
//
//	ndavet               # run all passes; exit 1 on any unallowed finding
//	ndavet -json         # full machine-readable report (allowed findings included)
//	ndavet -pass detlint # run a subset of passes (comma-separated)
//	ndavet -list-passes  # print the pass names with one-line descriptions
//	ndavet -contract     # print the layer-contract markdown table (README sync)
//	ndavet -C dir        # analyze the module containing dir (default ".")
//
// Run ndavet -list-passes for the pass roster; the interprocedural
// passes (alloclint, ctxlint, deadlint, leaklint, and locklint's
// transitive events) share one call graph with bottom-up dataflow
// summaries.
// Sanctioned exceptions carry //ndavet:allow <pass>[:<kind>] <reason>
// annotations.
//
// Exit codes follow the shared analysis convention: 0 clean, 1 when open
// findings remain (also under -json), 2 when the tool itself fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"nda/internal/analysis"
	"nda/internal/cliutil"
)

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit the full report as JSON, allowed findings included")
		passes     = flag.String("pass", "", "comma-separated subset of passes to run (default: all)")
		listPasses = flag.Bool("list-passes", false, "print the pass names with one-line descriptions and exit")
		contract   = flag.Bool("contract", false, "print the layer-contract markdown table and exit")
		dir        = flag.String("C", ".", "directory inside the module to analyze")
	)
	flag.Parse()

	if *listPasses {
		for _, p := range analysis.Passes {
			fmt.Printf("%-10s %s\n", p.Name, p.Doc)
		}
		return
	}
	if *contract {
		fmt.Print(analysis.ContractTable(analysis.DefaultContract))
		return
	}

	cfg := analysis.Config{}
	sel, err := cliutil.Passes(*passes, analysis.PassNames())
	toolErr(err)
	cfg.Passes = sel

	mod, err := analysis.Load(*dir)
	toolErr(err)
	report, err := analysis.RunAll(mod, cfg)
	toolErr(err)

	if *jsonOut {
		out, err := report.JSON()
		toolErr(err)
		os.Stdout.Write(out)
	} else {
		fmt.Print(report.Text())
	}

	open := report.Open()
	allowed := len(report.Findings) - len(open)
	if len(open) > 0 {
		fmt.Fprintf(os.Stderr, "ndavet: %d findings (%d allowed by annotation) over %d packages\n",
			len(open), allowed, len(mod.Pkgs))
	} else if !*jsonOut {
		fmt.Printf("ndavet: clean — %d packages, %d sanctioned exceptions\n", len(mod.Pkgs), allowed)
	}
	os.Exit(report.ExitCode())
}

// toolErr reports a tool failure — as opposed to a finding — and exits
// with the shared tool-error code.
func toolErr(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndavet:", err)
		os.Exit(analysis.ExitToolError)
	}
}
