package analysis

import (
	"os"
	"strings"
	"testing"
)

// TestRepoIsVetClean is the zero-findings census: all nine passes over
// this repository's own source must come back clean, so a future
// violation fails go test ./... — not just make lint. Sanctioned
// exceptions (//ndavet:allow) are permitted; anything else is a failure
// naming the exact line to fix.
func TestRepoIsVetClean(t *testing.T) {
	m, err := Load("../..")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	report, err := RunAll(m, Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range report.Open() {
		t.Errorf("%s", f.String())
	}
	if t.Failed() {
		t.Log("fix the finding or, for a sanctioned exception, add //ndavet:allow <pass> <reason>")
	}

	// Every sanctioned exception is deliberate; a new one should be a
	// conscious decision that updates this census (and README's). Two are
	// deadlint's: test reference implementations no production code runs.
	allowed := 0
	for pass, n := range report.Allowed {
		if passByName(pass) != nil {
			allowed += n
		}
	}
	if want := 24; allowed != want {
		t.Errorf("sanctioned exceptions = %d, want %d — update the census in self_test.go and README.md", allowed, want)
		for pass, n := range report.Allowed {
			t.Logf("  %s: %d", pass, n)
		}
	}
}

// TestContractTableMatchesREADME keeps the layer-contract table in the
// README byte-identical to the one generated from layers.go, so editing
// the contract without updating the docs fails the suite (CI runs the
// same check via make contract-check).
func TestContractTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	const begin = "<!-- ndavet:contract begin (generated by `ndavet -contract`; do not edit by hand) -->"
	const end = "<!-- ndavet:contract end -->"
	text := string(readme)
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README is missing the ndavet:contract markers")
	}
	got := strings.TrimSpace(text[i+len(begin) : j])
	want := strings.TrimSpace(ContractTable(DefaultContract))
	if got != want {
		t.Errorf("README layer-contract table is stale; regenerate with:\n\n\tgo run ./cmd/ndavet -contract\n\ngot:\n%s\n\nwant:\n%s", got, want)
	}
}

// TestDefaultContractIsAcyclic pins the declared-DAG property, and the
// detector itself against a synthetic cycle.
func TestDefaultContractIsAcyclic(t *testing.T) {
	if cyc := contractCycle(DefaultContract); cyc != "" {
		t.Errorf("default contract has a cycle: %s", cyc)
	}
	bad := []Rule{
		{Path: "m/a", Class: Service, Allow: []string{"m/b"}},
		{Path: "m/b", Class: Service, Allow: []string{"m/a"}},
	}
	cyc := contractCycle(bad)
	if !strings.Contains(cyc, "m/a") || !strings.Contains(cyc, "m/b") {
		t.Errorf("synthetic cycle not detected: %q", cyc)
	}
}
