package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Three runs of one benchmark (-count=3) fold into one record: the largest
// allocs/op and B/op, the median ns/op and custom metric. A benchmark seen
// once passes through unchanged, and the -GOMAXPROCS suffix goes to Procs.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	out := `goos: linux
BenchmarkAttack-2   1   3000 ns/op   10 leak-margin-cycles   4096 B/op   805 allocs/op
BenchmarkAttack-2   1   1000 ns/op   30 leak-margin-cycles   4200 B/op   809 allocs/op
BenchmarkAttack-2   1   2000 ns/op   20 leak-margin-cycles   4100 B/op   806 allocs/op
BenchmarkSim-2      5    700 ns/op    0 B/op   0 allocs/op
PASS
`
	f, err := parse(strings.NewReader(out), 6, "note")
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkAttack", Procs: 2, Runs: 3, Iterations: 1, NsPerOp: 2000, BytesPerOp: 4200, AllocsPerOp: 809,
			Metrics: map[string]float64{"leak-margin-cycles": 20}},
		{Name: "BenchmarkSim", Procs: 2, Runs: 1, Iterations: 5, NsPerOp: 700},
	}
	if !reflect.DeepEqual(f.Benchmarks, want) {
		t.Errorf("parse folded\n%+v\nwant\n%+v", f.Benchmarks, want)
	}
	if f.Index != 6 || f.Note != "note" {
		t.Errorf("index/note = %d/%q, want 6/\"note\"", f.Index, f.Note)
	}
}

// go test prints a benchmark run at -cpu 1 without a suffix and one run
// at -cpu 2 with -2. The two passes of one benchmark stay two records, the
// plain one first, and a sub-benchmark whose own name ends in a number
// keeps it.
func TestParseKeepsPassesApart(t *testing.T) {
	out := `BenchmarkRunInsts/exchange2/OoO   1   900 ns/op   0 B/op   0 allocs/op
BenchmarkFig7CPI-2   1   500 ns/op   1300 B/op   1364 allocs/op
BenchmarkFig7CPI   1   700 ns/op   1000 B/op   1000 allocs/op
BenchmarkRunInsts/exchange2/OoO-2   1   800 ns/op   5248 B/op   5 allocs/op
`
	f, err := parse(strings.NewReader(out), 13, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkFig7CPI", Runs: 1, Iterations: 1, NsPerOp: 700, BytesPerOp: 1000, AllocsPerOp: 1000},
		{Name: "BenchmarkFig7CPI", Procs: 2, Runs: 1, Iterations: 1, NsPerOp: 500, BytesPerOp: 1300, AllocsPerOp: 1364},
		{Name: "BenchmarkRunInsts/exchange2/OoO", Runs: 1, Iterations: 1, NsPerOp: 900},
		{Name: "BenchmarkRunInsts/exchange2/OoO", Procs: 2, Runs: 1, Iterations: 1, NsPerOp: 800, BytesPerOp: 5248, AllocsPerOp: 5},
	}
	if !reflect.DeepEqual(f.Benchmarks, want) {
		t.Errorf("parse gave\n%+v\nwant\n%+v", f.Benchmarks, want)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The gate fails on an allocation regression in a gated benchmark and
// only reports one in an informational benchmark or pass.
func TestCompareGatesAllButInformational(t *testing.T) {
	write := func(name string, f File) string {
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", File{Index: 1, Benchmarks: []Benchmark{
		{Name: "BenchmarkNdavetRepo", AllocsPerOp: 1000, BytesPerOp: 1000},
		{Name: "BenchmarkNdavetCorpus", AllocsPerOp: 1000, BytesPerOp: 1000},
		{Name: "BenchmarkNdavetCorpus", Procs: 2, AllocsPerOp: 1000, BytesPerOp: 1000},
	}})
	live := write("live.json", File{Index: 2, Benchmarks: []Benchmark{
		{Name: "BenchmarkNdavetRepo", AllocsPerOp: 2000, BytesPerOp: 2000},
		{Name: "BenchmarkNdavetCorpus", AllocsPerOp: 1000, BytesPerOp: 1000},
		{Name: "BenchmarkNdavetCorpus", Procs: 2, AllocsPerOp: 2000, BytesPerOp: 2000},
	}})
	if err := compareFiles(base, live); err != nil {
		t.Errorf("a regression in the informational live-tree run or -cpu 2 pass failed the gate: %v", err)
	}
	dropped := write("dropped.json", File{Index: 2, Benchmarks: []Benchmark{
		{Name: "BenchmarkNdavetRepo", AllocsPerOp: 1000, BytesPerOp: 1000},
		{Name: "BenchmarkNdavetCorpus", AllocsPerOp: 1000, BytesPerOp: 1000},
	}})
	if err := compareFiles(base, dropped); err != nil {
		t.Errorf("a -cpu 2 record missing from the candidate failed the gate: %v", err)
	}
	if err := compareFiles(dropped, base); err != nil {
		t.Errorf("a -cpu 2 record new in the candidate failed the gate: %v", err)
	}
	gone := write("gone.json", File{Index: 2, Benchmarks: []Benchmark{
		{Name: "BenchmarkNdavetRepo", AllocsPerOp: 1000, BytesPerOp: 1000},
	}})
	if err := compareFiles(base, gone); err == nil || !strings.Contains(err.Error(), "BenchmarkNdavetCorpus: present") {
		t.Errorf("a gated benchmark missing from the candidate: err = %v", err)
	}
	frozen := write("frozen.json", File{Index: 2, Benchmarks: []Benchmark{
		{Name: "BenchmarkNdavetRepo", AllocsPerOp: 1000, BytesPerOp: 1000},
		{Name: "BenchmarkNdavetCorpus", AllocsPerOp: 1010, BytesPerOp: 1000},
		{Name: "BenchmarkNdavetCorpus", Procs: 2, AllocsPerOp: 1000, BytesPerOp: 1000},
	}})
	if err := compareFiles(base, frozen); err == nil || !strings.Contains(err.Error(), "BenchmarkNdavetCorpus: allocs/op regressed") {
		t.Errorf("a regression in the gated corpus run: err = %v", err)
	}
}
