package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// loadResults reads every <workload>.json result under dir, in path order,
// grouped by workload. Trace files are skipped.
func loadResults(dir string) (map[string][]result, error) {
	out := map[string][]result{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasPrefix(d.Name(), "trace-") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(d.Name(), ".json")
		out[name] = append(out[name], r)
		return nil
	})
	return out, err
}

// runCompare compares the runs under dirA (the parent) with those under
// dirB (the change), per workload and end-to-end metric, and reports false
// if any metric regressed or could not be resolved.
func runCompare(w io.Writer, benchPath, dirA, dirB string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-16s %28s %28s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			va, vb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, wins, pairs := verdict(va, vb, m.Better, m.Bound)
			if v == "regressed" || v == "unresolved" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-16s %28s %28s %3d/%-3d  %s\n", wl, m.Name, spread(va), spread(vb), wins, pairs, v)
		}
	}
	return ok, nil
}

func values(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Correct {
			out = append(out, v.Value)
		}
	}
	return out
}

func spread(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// verdict applies the rule for claiming a change: B improved if it wins at
// least nine in ten of the pairs (A[i], B[i]) and the medians differ by
// more than A's interquartile range; B regressed if its median is worse
// than A's by more than bound and by more than that range. Otherwise the
// metric is unresolved when either side's spread exceeds bound, and
// unchanged when it does not.
func verdict(a, b []float64, better string, bound float64) (v string, wins, pairs int) {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	pairs = len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	resolved := math.Abs(mb-ma) > qa3-qa1
	worse := -sign * (mb - ma) / math.Abs(ma)
	spreadA, spreadB := (qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb)
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && resolved:
		return "improved", wins, pairs
	case worse > bound && resolved:
		return "regressed", wins, pairs
	case math.Max(spreadA, spreadB) > bound:
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
