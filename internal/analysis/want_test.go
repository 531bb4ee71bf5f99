package analysis

import (
	"fmt"
	"regexp"
	"testing"
)

// corpusContract declares the corpus module's layers: det/detdep are
// deterministic (detlint, globlint, stdlib restrictions), svc is service
// (locklint, errlint), jobs is service (leaklint, ctxlint, transitive
// locklint), hot is deterministic (alloclint's hot-path cases), progen
// is deterministic but errlint-covered by path suffix, badlayer is
// deterministic but sins on purpose, the root facade and internal/dead
// hold the deadlint cases, and unlisted is deliberately absent.
var corpusContract = []Rule{
	{Path: "corpus", Class: Deterministic, Allow: []string{"corpus/internal/dead"}},
	{Path: "corpus/internal/dead", Class: Deterministic},
	{Path: "corpus/detdep", Class: Deterministic},
	{Path: "corpus/det", Class: Deterministic, Allow: []string{"corpus/detdep"}},
	{Path: "corpus/svc", Class: Service},
	{Path: "corpus/jobs", Class: Service},
	{Path: "corpus/hot", Class: Deterministic},
	{Path: "corpus/progen", Class: Deterministic},
	{Path: "corpus/badlayer", Class: Deterministic},
}

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// TestCorpus runs every pass over the expectation corpus: each // want
// comment must match exactly one reported finding on its line, every
// reported finding must be wanted, and the sanctioned (annotated)
// exceptions must be granted — one per pass.
func TestCorpus(t *testing.T) {
	m, err := Load("testdata/corpus")
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	report, err := RunAll(m, Config{Contract: corpusContract})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{} // "file:line" -> expectations
	key := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					ms := wantRe.FindStringSubmatch(c.Text)
					if ms == nil {
						continue
					}
					file, line, _ := m.Rel(c.Pos())
					wants[key(file, line)] = append(wants[key(file, line)], &want{re: regexp.MustCompile(ms[1])})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("corpus has no want comments; the expectation harness is broken")
	}

	for _, f := range report.Open() {
		k := key(f.File, f.Line)
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f.String())
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: wanted finding matching %q, got none", k, w.re)
			}
		}
	}

	// The corpus carries exactly one sanctioned exception per pass; the
	// census must show each as allowed, proving the annotation grammar
	// grants findings rather than hiding them.
	for _, pass := range PassNames() {
		if got := report.Allowed[pass]; got != 1 {
			t.Errorf("allowed census for %s = %d, want 1", pass, got)
		}
	}
}

// TestCorpusPassSubset proves -pass filtering does not invent unused-
// annotation findings for the passes that were not run.
func TestCorpusPassSubset(t *testing.T) {
	m, err := Load("testdata/corpus")
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	report, err := RunAll(m, Config{Contract: corpusContract, Passes: []string{"locklint"}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range report.Open() {
		if f.Pass == "allow" && f.File != "det/det.go" {
			t.Errorf("pass-subset run invented an annotation finding: %s", f.String())
		}
		if f.Pass != "allow" && f.Pass != "locklint" {
			t.Errorf("pass-subset run leaked a %s finding: %s", f.Pass, f.String())
		}
	}
	if got := report.Allowed["locklint"]; got != 1 {
		t.Errorf("allowed locklint census = %d, want 1", got)
	}
}

// TestRunAllRejectsUnknownPass covers the config error path.
func TestRunAllRejectsUnknownPass(t *testing.T) {
	m, err := Load("testdata/corpus")
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	if _, err := RunAll(m, Config{Contract: corpusContract, Passes: []string{"nope"}}); err == nil {
		t.Fatal("unknown pass accepted")
	}
}
