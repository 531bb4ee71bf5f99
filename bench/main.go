// Command bench is the repository benchmark. It runs one of three workloads,
// from the paper's Fig. 7 sweep to ndaserve's warm request path, checks the
// workload's output, and prints its end-to-end metrics or, with -trace 1,
// its per-layer metrics as one JSON object on the last line of standard
// output. bench/run.sh builds and runs it; bench/README.md explains the
// workloads and how to read a trace.
//
//	bench -workload sweep -seed 1 -seconds 10 -trace 0
//	bench -workload all -sets 2 -out DIR      # one process per workload and set
//	bench -compare DIR_A DIR_B                # verdict per workload and metric
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workers is the simulation worker count. The benchmark machine has two
// CPUs, and bench/run.sh pins GOMAXPROCS=2.
const workers = 2

// setupProbes is how many times a run sets its workload up, each in a
// fresh process, to report the median as setup_s.
const setupProbes = 31

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"sweep", "fuzz", "serve-hot"}

// runner runs one workload.
type runner interface {
	// setup is what a user pays before the first result: loading inputs
	// and expected outputs, starting and cache-warming a server.
	setup(ctx context.Context) error
	// warm runs the measured work once, unmeasured.
	warm(ctx context.Context) error
	// measure runs for window with tracing off.
	measure(ctx context.Context, window time.Duration) (*report, error)
	// trace runs the work untraced and traced for window, then breaks the
	// traced work down into its layers.
	trace(ctx context.Context, window time.Duration, tr *tracer) (*report, error)
	close()
}

// report is what measure or trace found. An error returned beside it is a
// failed output check or a failed operation.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	// detail holds traced numbers beyond the per-layer metrics: they are
	// printed and written to the trace file.
	detail map[string]float64
}

// newRunner builds a workload at its full size. root is the repository
// root, which holds the goldens under testdata/.
func newRunner(name string, seed int64, root string) (runner, error) {
	switch name {
	case "sweep":
		return &simRunner{w: newSweep(root)}, nil
	case "fuzz":
		return &simRunner{w: newFuzz(seed, fuzzPrograms)}, nil
	case "serve-hot":
		return &serveRunner{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metricValue and result are the JSON a run prints last.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root, holding testdata/ and BENCHMARK.json")
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (with -sets)")
		seed     = flag.Int64("seed", 1, "input seed; fuzz draws its programs from it, the other inputs are fixed")
		seconds  = flag.Float64("seconds", 25, "measured window of one run")
		traceOn  = flag.Int("trace", 0, "1 = traced run: per-layer metrics, a breakdown on stderr, and trace-<workload>.json under -out")
		out      = flag.String("out", "", "directory for trace files and -sets results (default: ndabench under $TMPDIR)")
		sets     = flag.Int("sets", 0, "run the workloads this many times with seeds seed, seed+1, ..., one process per run, writing <out>/set-<k>/<workload>.json")
		compare  = flag.Bool("compare", false, "compare two result directories given as arguments and print a verdict per workload and metric")
		probe    = flag.Bool("probe", false, "set the workload up, print ready, and tear it down (the setup_s measurement)")
	)
	flag.Parse()
	if *workload == "serve-hot" {
		runtime.GOMAXPROCS(serveProcs)
	}
	if *out == "" {
		*out = filepath.Join(os.TempDir(), "ndabench")
	}
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare wants two result directories")
			break
		}
		var ok bool
		if ok, err = runCompare(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			os.Exit(1)
		}
	case *probe:
		err = runProbe(ctx, *workload, *seed, *root)
	case *sets > 0:
		err = runSets(ctx, *workload, *seed, *seconds, *traceOn, *sets, *out, *root)
	default:
		err = runOne(ctx, *workload, *seed, *seconds, *traceOn == 1, *out, *root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errCheck) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errCheck marks a run whose output check or operations failed; it has
// already printed its result with "correct": false.
var errCheck = errors.New("output check failed")

func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool, out, root string) error {
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	d, err := newRunner(name, seed, root)
	if err != nil {
		return err
	}
	window := time.Duration(seconds * float64(time.Second))
	var setupS float64
	if !traced {
		if setupS, err = probeSetup(ctx, name, seed, root); err != nil {
			return err
		}
	}
	if err := d.setup(ctx); err != nil {
		return fmt.Errorf("%s: setup: %w", name, err)
	}
	defer d.close()

	var rep *report
	var tr *tracer
	if err = d.warm(ctx); err == nil {
		if traced {
			tr = newTracer()
			rep, err = d.trace(ctx, window, tr)
		} else {
			rep, err = d.measure(ctx, window)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		printResult(result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		return errCheck
	}

	// Every workload prints every metric BENCHMARK.json lists for the
	// mode; a layer the workload does not exercise reads 0.
	defs := bf.EndToEnd
	if traced {
		defs = bf.PerLayer
	} else {
		rep.metrics["setup_s"] = setupS
	}
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := rep.metrics[m.Name]
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(os.Stderr, "%s %s %.6g %s\n", name, m.Name, v, m.Unit)
	}
	if traced {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		layers := tr.stats()
		printBreakdown(os.Stderr, layers, rep.detail)
		path := filepath.Join(out, "trace-"+name+".json")
		if err := writeTrace(path, &traceFile{Workload: name, Seed: seed, Metrics: rep.metrics,
			Detail: rep.detail, Layers: layers, Spans: tr.spans}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	printResult(res)
	return nil
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// probeSetup starts this binary in -probe mode setupProbes times and
// returns the median time from process start to "ready": set-up work moved
// into package initialisation shows up here too.
func probeSetup(ctx context.Context, name string, seed int64, root string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, "-probe", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-root", root)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		if werr := cmd.Wait(); werr != nil {
			return 0, fmt.Errorf("%s: setup probe: %w", name, werr)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("%s: setup probe printed %q", name, line)
		}
		ts = append(ts, d.Seconds())
	}
	return median(ts), nil
}

func runProbe(ctx context.Context, name string, seed int64, root string) error {
	d, err := newRunner(name, seed, root)
	if err != nil {
		return err
	}
	if err := d.setup(ctx); err != nil {
		return err
	}
	fmt.Println("ready")
	d.close()
	return nil
}

// runSets runs each selected workload sets times, one process per run, and
// writes each run's result line to <out>/set-<k>/<workload>.json. Set k
// uses seed+k-1, so two calls with the same seed pair their runs by seed.
func runSets(ctx context.Context, name string, seed int64, seconds float64, traceOn, sets int, out, root string) error {
	names := []string{name}
	if name == "all" {
		names = workloadNames
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for k := 1; k <= sets; k++ {
		dir := filepath.Join(out, fmt.Sprintf("set-%02d", k))
		setSeed := strconv.FormatInt(seed+int64(k-1), 10)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, w := range names {
			cmd := exec.CommandContext(ctx, self, "-workload", w, "-seed", setSeed,
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceOn),
				"-out", dir, "-root", root)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			last := lines[len(lines)-1]
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil || runErr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: set %d %s failed: %v\n", k, w, runErr)
				failed++
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, w+".json"), []byte(last+"\n"), 0o644); err != nil {
				return err
			}
			for _, m := range sortedKeys(res.Metrics) {
				fmt.Printf("%s %s %.6g %s\n", w, m, res.Metrics[m].Value, res.Metrics[m].Unit)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed: %w", failed, errCheck)
	}
	return nil
}
