// Package analysis is the static-analysis layer shared by the repo's two
// analyzers: ndalint (the speculative-gadget analyzer over ISA programs)
// and ndavet (the determinism/layering analyzer over the Go source
// itself). It provides the common finding/report plumbing both tools emit
// through, plus ndavet's module loader, source importer, layer contract,
// and the table of ndavet passes (analysis.go).
//
// The module has no external dependencies, so everything here is built on
// the standard library's go/parser, go/ast, and go/types.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Finding is one diagnostic from a static-analysis pass, in the shared
// format both ndalint and ndavet emit:
//
//	file:line:col: [tool/pass] message
//
// For source-level tools File is a path relative to the module root; for
// program-level tools (ndalint's Table 2 cross-check) File names the ISA
// program and Line/Col are zero and elided from the text rendering.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	Tool string `json:"tool"`
	Pass string `json:"pass"`
	// Kind subdivides a pass's findings (see Pass.Kinds). An
	// //ndavet:allow annotation may pin itself to a kind with
	// <pass>:<kind>, so a refactor that swaps one finding kind for
	// another on the same line cannot silently reuse the old exemption.
	Kind    string `json:"kind,omitempty"`
	Message string `json:"message"`
	// Allowed marks a finding granted by an explicit //ndavet:allow
	// annotation; allowed findings are reported in the census but do not
	// fail the run.
	Allowed bool `json:"allowed,omitempty"`
	// Reason is the annotation's justification when Allowed is set.
	Reason string `json:"reason,omitempty"`
}

// String renders the finding in the canonical one-line format.
func (f *Finding) String() string {
	pos := f.File
	if f.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
	}
	s := fmt.Sprintf("%s: [%s/%s] %s", pos, f.Tool, f.Pass, f.Message)
	if f.Allowed {
		s += fmt.Sprintf(" (allowed: %s)", f.Reason)
	}
	return s
}

// Exit codes shared by the analysis CLIs (ndalint, ndavet): clean runs
// exit ExitClean, runs that complete but surface open findings exit
// ExitFindings — including under -json — and tool failures (bad flags,
// unloadable modules, broken builtins) exit ExitToolError, so CI can tell
// "the tree is dirty" from "the analyzer broke".
const (
	ExitClean     = 0
	ExitFindings  = 1
	ExitToolError = 2
)

// ExitCode maps a report onto the shared convention: ExitFindings when
// any finding is open, ExitClean otherwise.
func (r *Report) ExitCode() int {
	if len(r.Open()) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// Report is a tool run's full finding set plus its census.
type Report struct {
	Tool     string    `json:"tool"`
	Findings []Finding `json:"findings"`
	// Counts maps "pass" to the number of findings from that pass,
	// including allowed ones; Allowed maps "pass" to how many of those
	// were granted by annotations.
	Counts  map[string]int `json:"counts"`
	Allowed map[string]int `json:"allowed"`
}

// NewReport builds a report over findings: sorted by position, with the
// per-pass census filled in.
func NewReport(tool string, findings []Finding) *Report {
	r := &Report{Tool: tool, Findings: findings, Counts: map[string]int{}, Allowed: map[string]int{}}
	SortFindings(r.Findings)
	for i := range r.Findings {
		f := &r.Findings[i]
		r.Counts[f.Pass]++
		if f.Allowed {
			r.Allowed[f.Pass]++
		}
	}
	return r
}

// Open returns the findings not granted by an annotation — the set that
// should fail a clean-tree check.
func (r *Report) Open() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Allowed {
			out = append(out, f)
		}
	}
	return out
}

// Text renders every finding one per line, open findings first.
func (r *Report) Text() string {
	var b strings.Builder
	for i := range r.Findings {
		if !r.Findings[i].Allowed {
			fmt.Fprintln(&b, r.Findings[i].String())
		}
	}
	for i := range r.Findings {
		if r.Findings[i].Allowed {
			fmt.Fprintln(&b, r.Findings[i].String())
		}
	}
	return b.String()
}

// JSON renders the report in the shared machine-readable shape.
func (r *Report) JSON() ([]byte, error) { return MarshalReport(r) }

// SortFindings orders findings by file, line, column, pass, message — the
// stable order every rendering uses.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := &fs[i], &fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}

// MarshalReport is the shared JSON rendering for analysis reports:
// indented, newline-terminated, deterministic (Go's encoder sorts map
// keys). ndalint's gadget census and ndavet's finding report both emit
// through it so the two tools' -json outputs stay uniform.
func MarshalReport(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
