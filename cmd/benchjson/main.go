// Command benchjson converts `go test -bench` output into the repo's
// machine-readable BENCH_<n>.json trajectory format, and compares two such
// files for allocation regressions.
//
//	go test -bench=. -benchmem -count=3 . | benchjson -index 2 > BENCH_2.json
//	benchjson -compare BENCH_1.json candidate.json
//
// A benchmark that appears on several lines (-count=N) is folded into one
// record: allocs/op and B/op are the maximum over the runs, ns/op and the
// custom metrics the median. Taking the maximum makes the gated numbers
// stable. Allocation counts move by a few between runs of the same code,
// with however many garbage collections land in a run and empty the
// sync.Pools, and a single low reading recorded as the baseline would
// fail the next honest run.
//
// The trajectory convention: BENCH_0.json is the pre-event-loop baseline,
// every later index is one PR's measured state. The bench-trajectory CI
// job regenerates the current numbers and compares them against the
// highest checked-in index: allocs/op and B/op may not regress (hard gate,
// exact for zero-alloc baselines, with a sliver of slack otherwise for
// runtime jitter in the parallel harnesses); timing is reported but not
// gated, so shared-runner noise cannot block a merge.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measured numbers.
type Benchmark struct {
	Name        string  `json:"name"`           // without the -GOMAXPROCS suffix
	Runs        int     `json:"runs,omitempty"` // result lines folded in (-count)
	Iterations  int64   `json:"iterations"`     // b.N, the most over the runs
	NsPerOp     float64 `json:"ns_per_op"`      // wall time per iteration, median over the runs
	BytesPerOp  float64 `json:"bytes_per_op"`   // -benchmem, maximum over the runs
	AllocsPerOp float64 `json:"allocs_per_op"`  // -benchmem, maximum over the runs; the CI gate
	// Metrics holds every custom b.ReportMetric unit (sim-inst/s,
	// sim-cycles/s, leak-margin-cycles, ...), median over the runs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is one BENCH_<n>.json: a point on the perf trajectory.
type File struct {
	Index      int         `json:"index"`
	GoVersion  string      `json:"go_version,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		index   = flag.Int("index", -1, "trajectory index to stamp into the output")
		note    = flag.String("note", "", "free-form note stamped into the output")
		compare = flag.String("compare", "", "baseline BENCH_<n>.json: compare a candidate file (second arg) instead of parsing bench output")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal("usage: benchjson -compare BASELINE.json CANDIDATE.json")
		}
		if err := compareFiles(*compare, flag.Arg(0)); err != nil {
			fatal(err.Error())
		}
		return
	}

	f, err := parse(os.Stdin, *index, *note)
	if err != nil {
		fatal(err.Error())
	}
	if len(f.Benchmarks) == 0 {
		fatal("no benchmark lines found on stdin (want `go test -bench` output)")
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(out))
}

// parse reads `go test -bench` output. A benchmark line looks like:
//
//	BenchmarkName-8   100   12345 ns/op   67 custom-unit   8 B/op   2 allocs/op
//
// i.e. the benchmark name, the iteration count, then (value, unit) pairs.
// Lines of the same benchmark are folded into one record (see fold).
func parse(r io.Reader, index int, note string) (*File, error) {
	f := &File{Index: index, Note: note}
	runs := map[string][]Benchmark{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "go: ") || strings.HasPrefix(line, "goversion:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // not a result line (e.g. a benchmark's log output)
		}
		b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				b.Metrics[unit] = val
			}
		}
		if _, ok := runs[name]; !ok {
			order = append(order, name)
		}
		runs[name] = append(runs[name], b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		f.Benchmarks = append(f.Benchmarks, fold(runs[name]))
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
	return f, nil
}

// fold merges the runs of one benchmark: the maximum of allocs/op, B/op
// and the iteration count, the median of ns/op and of every custom metric.
func fold(runs []Benchmark) Benchmark {
	b := Benchmark{Name: runs[0].Name, Runs: len(runs)}
	var ns []float64
	var units []string
	for _, r := range runs {
		b.Iterations = max(b.Iterations, r.Iterations)
		b.AllocsPerOp = max(b.AllocsPerOp, r.AllocsPerOp)
		b.BytesPerOp = max(b.BytesPerOp, r.BytesPerOp)
		ns = append(ns, r.NsPerOp)
		for unit := range r.Metrics {
			if !slices.Contains(units, unit) {
				units = append(units, unit)
			}
		}
	}
	sort.Strings(units)
	b.NsPerOp = median(ns)
	for _, unit := range units {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[unit]; ok {
				vs = append(vs, v)
			}
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = median(vs)
	}
	return b
}

// median returns the middle value of vs, or the mean of the two middle
// values when there is an even number of them.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Gate slack. A zero baseline is gated exactly: a benchmark that measured
// 0 allocs/op must stay at 0 — that is the invariant the trajectory exists
// to pin. Nonzero baselines get a sliver of relative slack plus a small
// absolute floor, because the macro benchmarks drive parallel sweep workers
// and runtime-internal allocations (goroutine stacks, channel internals)
// jitter by a few counts with goroutine interleaving. The slack is far
// below any real regression: one extra allocation per simulated sample
// shows up as thousands of allocs/op.
const (
	relTolerance = 0.005 // 0.5% relative, allocs/op and B/op alike
	allocsFloor  = 2     // absolute slack, allocs/op, nonzero baselines
	bytesFloor   = 512   // absolute slack, B/op, nonzero baselines
)

// limit computes the gated ceiling for a baseline value: exact at zero,
// relative slack plus an absolute floor otherwise.
func limit(old, floor float64) float64 {
	if old == 0 {
		return 0
	}
	return old*(1+relTolerance) + floor
}

// compareFiles enforces the trajectory gate: every benchmark present in
// both files must not regress in allocs/op or bytes/op beyond the slack
// above, and no benchmark from the baseline may disappear. Timing deltas
// are printed for the log but never fail the comparison.
func compareFiles(basePath, candPath string) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	candidates := map[string]Benchmark{}
	for _, b := range cand.Benchmarks {
		candidates[b.Name] = b
	}
	var failures []string
	for _, old := range base.Benchmarks {
		now, ok := candidates[old.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in %s but missing from candidate", old.Name, basePath))
			continue
		}
		if lim := limit(old.AllocsPerOp, allocsFloor); now.AllocsPerOp > lim {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %v -> %v (limit %.0f)", old.Name, old.AllocsPerOp, now.AllocsPerOp, lim))
		}
		if lim := limit(old.BytesPerOp, bytesFloor); now.BytesPerOp > lim {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed %v -> %v (limit %.0f)", old.Name, old.BytesPerOp, now.BytesPerOp, lim))
		}
		delta := "n/a"
		if old.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (now.NsPerOp/old.NsPerOp-1)*100)
		}
		fmt.Printf("%-40s ns/op %12.0f -> %12.0f  (%s, informational)  allocs/op %v -> %v\n",
			old.Name, old.NsPerOp, now.NsPerOp, delta, old.AllocsPerOp, now.AllocsPerOp)
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regression vs %s (index %d):\n  %s",
			basePath, base.Index, strings.Join(failures, "\n  "))
	}
	fmt.Printf("no allocation regressions vs %s (index %d, %d benchmarks)\n", basePath, base.Index, len(base.Benchmarks))
	return nil
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchjson:", msg)
	os.Exit(1)
}
