package main

import (
	"reflect"
	"strings"
	"testing"
)

// Three runs of one benchmark (-count=3) fold into one record: the largest
// allocs/op and B/op, the median ns/op and custom metric. A benchmark seen
// once passes through unchanged, and the -GOMAXPROCS suffix goes.
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
		{Name: "BenchmarkAttack", Runs: 3, Iterations: 1, NsPerOp: 2000, BytesPerOp: 4200, AllocsPerOp: 809,
			Metrics: map[string]float64{"leak-margin-cycles": 20}},
		{Name: "BenchmarkSim", Runs: 1, Iterations: 5, NsPerOp: 700},
	}
	if !reflect.DeepEqual(f.Benchmarks, want) {
		t.Errorf("parse folded\n%+v\nwant\n%+v", f.Benchmarks, want)
	}
	if f.Index != 6 || f.Note != "note" {
		t.Errorf("index/note = %d/%q, want 6/\"note\"", f.Index, f.Note)
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
