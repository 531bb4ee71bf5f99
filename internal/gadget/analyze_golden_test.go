package gadget_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nda/internal/gadget"
	"nda/internal/progen"
)

// analyzeGoldenSeeds is the number of progen seeds (1..n) the analyzer
// golden pins, alongside every builtin program.
const analyzeGoldenSeeds = 300

// analyzeGolden renders one JSON line per program: the full Analysis of
// progen seeds 1..analyzeGoldenSeeds, then of every builtin (each attack
// PoC under its own Config, then each workload kernel).
func analyzeGolden(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	line := func(name string, an *gadget.Analysis) {
		j, err := json.Marshal(struct {
			Name     string           `json:"name"`
			Analysis *gadget.Analysis `json:"analysis"`
		}{name, an})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	for seed := int64(1); seed <= analyzeGoldenSeeds; seed++ {
		p, err := progen.Gen(seed)
		if err != nil {
			t.Fatal(err)
		}
		line(p.Name, gadget.Analyze(p.Prog, gadget.Config{}))
	}
	ins, err := gadget.Builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		line(in.Group+"/"+in.Name, gadget.Analyze(in.Prog, in.Cfg))
	}
	return b.Bytes()
}

// TestAnalyzeGolden requires Analyze to reproduce, byte for byte, the full
// Analysis JSON recorded in testdata/analyze.golden.jsonl.gz: every gadget,
// site, chain, flavor and verdict of 300 generated programs and of every
// attack PoC and workload kernel. The analyzer's internal representation may
// change; its output may not.
// Regenerate with: go test ./internal/gadget -run TestAnalyzeGolden -update
func TestAnalyzeGolden(t *testing.T) {
	got := analyzeGolden(t)
	golden := filepath.Join("testdata", "analyze.golden.jsonl.gz")
	if *update {
		var z bytes.Buffer
		zw, err := gzip.NewWriterLevel(&z, gzip.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(got); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d uncompressed)", golden, z.Len(), len(got))
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d deviates from %s at byte %d:\n got %.400s\nwant %.400s",
				i+1, golden, diffAt(gl[i], wl[i]), gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
}
