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
// go test names a benchmark run at -cpu 1 plainly and one run at -cpu N,
// N > 1, with a -N suffix. A plain name is the gated pass; a suffixed one
// is kept apart, with N in Procs, and is information only (see
// scripts/bench_json.sh: each gated benchmark runs alone in a process at
// -cpu 1, so its allocation count depends on neither the parallel
// schedule nor what the process ran before).
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
	Name string `json:"name"` // without the -GOMAXPROCS suffix
	// Procs is the GOMAXPROCS of an informational pass, from the -N suffix
	// of its lines; 0 for the gated pass (no suffix: -cpu 1).
	Procs       int     `json:"procs,omitempty"`
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
	runs := map[benchKey][]Benchmark{}
	var order []benchKey
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
		name, procs := fields[0], 0
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 1 {
				name, procs = name[:i], n // strip the -GOMAXPROCS suffix
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // not a result line (e.g. a benchmark's log output)
		}
		b := Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
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
		k := b.key()
		if _, ok := runs[k]; !ok {
			order = append(order, k)
		}
		runs[k] = append(runs[k], b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range order {
		f.Benchmarks = append(f.Benchmarks, fold(runs[k]))
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		a, b := f.Benchmarks[i], f.Benchmarks[j]
		return a.Name < b.Name || a.Name == b.Name && a.Procs < b.Procs
	})
	return f, nil
}

// benchKey identifies one benchmark of one pass.
type benchKey struct {
	name  string
	procs int
}

func (b Benchmark) key() benchKey { return benchKey{b.Name, b.Procs} }

// label names b as go test printed it.
func (b Benchmark) label() string {
	if b.Procs == 0 {
		return b.Name
	}
	return fmt.Sprintf("%s-%d", b.Name, b.Procs)
}

// fold merges the runs of one benchmark: the maximum of allocs/op, B/op
// and the iteration count, the median of ns/op and of every custom metric.
func fold(runs []Benchmark) Benchmark {
	b := Benchmark{Name: runs[0].Name, Procs: runs[0].Procs, Runs: len(runs)}
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

// informational names the benchmarks whose allocation columns are
// printed but not gated, in every pass. BenchmarkNdavetRepo analyses the
// live repository, so its allocations grow with every line added anywhere
// in it; BenchmarkNdavetCorpus, the same run over a frozen input, is the
// gated one. The -cpu N passes (Procs > 0) are information only too.
var informational = map[string]bool{"BenchmarkNdavetRepo": true}

// compareFiles enforces the trajectory gate: every benchmark present in
// both files must not regress in allocs/op or bytes/op beyond the slack
// above, and no benchmark of the baseline's gated pass may disappear. Timing deltas,
// and the allocation deltas of the informational benchmarks, are printed
// for the log but never fail the comparison.
func compareFiles(basePath, candPath string) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	candidates := map[benchKey]Benchmark{}
	for _, b := range cand.Benchmarks {
		candidates[b.key()] = b
	}
	var failures []string
	for _, old := range base.Benchmarks {
		name := old.label()
		now, ok := candidates[old.key()]
		if !ok {
			if old.Procs == 0 {
				failures = append(failures, fmt.Sprintf("%s: present in %s but missing from candidate", name, basePath))
			} else {
				fmt.Printf("%-40s missing from candidate (informational)\n", name)
			}
			continue
		}
		gated := "gated"
		if informational[old.Name] || old.Procs > 0 {
			gated = "informational"
		} else {
			if lim := limit(old.AllocsPerOp, allocsFloor); now.AllocsPerOp > lim {
				failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %v -> %v (limit %.0f)", name, old.AllocsPerOp, now.AllocsPerOp, lim))
			}
			if lim := limit(old.BytesPerOp, bytesFloor); now.BytesPerOp > lim {
				failures = append(failures, fmt.Sprintf("%s: B/op regressed %v -> %v (limit %.0f)", name, old.BytesPerOp, now.BytesPerOp, lim))
			}
		}
		delta := "n/a"
		if old.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (now.NsPerOp/old.NsPerOp-1)*100)
		}
		fmt.Printf("%-40s ns/op %12.0f -> %12.0f  (%s, informational)  allocs/op %v -> %v (%s)\n",
			name, old.NsPerOp, now.NsPerOp, delta, old.AllocsPerOp, now.AllocsPerOp, gated)
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
