// Command ndaload is the serving-layer load generator: it replays
// realistic multi-tenant request mixes against an ndaserve instance and
// reports per-tenant latency quantiles (p50/p95/p99), throughput, and
// Jain's fairness index, with optional saturation search and
// benchjson-compatible output for the BENCH_<n>.json trajectory.
//
//	ndaload -target http://127.0.0.1:8090 -duration 10s
//	ndaload -inproc -load 'greedy:kg:8:hot,light:kl:1:hot' \
//	        -tenants 'greedy:kg:1,light:kl:1' -duration 5s -min-jain 0.5
//	ndaload -inproc -saturation -bench Hot
//
// Each -load entry is name:key:workers[:mix[:rate[:weight]]]: a tenant's
// closed-loop worker count (or open-loop arrival rate), the request mix it
// replays (hot, longtail, attack, gadgets, cancel), and its fair-share
// weight for the weighted Jain index. With -inproc the server runs in this
// process on a loopback port — the load still flows over real HTTP — which
// is how the bench trajectory measures the serving path without external
// orchestration.
//
// Exit status: 0 on success, 1 if an SLO gate (-slo-warm-p99, -min-jain,
// -min-tenant-completed) fails, 2 on configuration or run errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nda/internal/cliutil"
	"nda/internal/load"
	"nda/internal/serve"
	"nda/internal/tenant"
)

func main() {
	var (
		target  = flag.String("target", "", "ndaserve base URL to load (or use -inproc)")
		inproc  = flag.Bool("inproc", false, "start an in-process server on a loopback port and load that")
		tenants = flag.String("tenants", "", "-inproc only: server tenant config name:key:weight[:rate[:burst[:inflight]]]; empty = single-tenant")

		loads    = flag.String("load", "local::2", "tenant load list name:key:workers[:mix[:rate[:weight]]]")
		mix      = flag.String("mix", "hot", "default mix for -load entries that omit one (hot, longtail, attack, gadgets, cancel)")
		rate     = flag.Float64("rate", 0, "override every tenant's open-loop arrival rate in requests/s (0 = keep per-entry rates)")
		duration = flag.Duration("duration", 5*time.Second, "measured window")
		stream   = flag.String("stream", "wait", "completion observation: wait, poll, or sse")
		warmup   = flag.Bool("warmup", true, "replay each warmable mix once, unmeasured, before the clock starts")

		saturation = flag.Bool("saturation", false, "after the mix run, search for saturation throughput by doubling closed-loop workers")
		satMax     = flag.Int("saturation-max-workers", 32, "worker cap for the saturation search")

		bench   = flag.String("bench", "", "emit benchjson-parseable result lines labelled BenchmarkLoad<name> on stdout")
		jsonOut = flag.Bool("json", false, "emit the full report as JSON on stdout")

		sloWarmP99 = flag.Duration("slo-warm-p99", 0, "fail (exit 1) if aggregate p99 latency exceeds this (0 = no gate)")
		minJain    = flag.Float64("min-jain", 0, "fail (exit 1) if the weighted Jain index falls below this (0 = no gate)")
		minTenant  = flag.Int64("min-tenant-completed", 0, "fail (exit 1) if any tenant completes fewer requests than this (0 = no gate)")

		// -inproc server shape (mirrors ndaserve's flags).
		queueDepth = flag.Int("queue", 16, "-inproc: bounded job queue depth")
		jobWorkers = flag.Int("job-workers", 2, "-inproc: jobs executing concurrently")
		simWorkers = flag.Int("sim-workers", 0, "-inproc: simulation goroutines per job (0 = one per CPU)")
	)
	flag.Parse()
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndaload: %v\n", err)
			os.Exit(2)
		}
	}

	mode, err := load.ParseAwait(*stream)
	fatal(err)
	rateOverride, err := cliutil.Rate(*rate)
	fatal(err)
	if _, err := cliutil.PositiveDuration("-duration", *duration); err != nil {
		fatal(err)
	}
	defMix, err := load.ParseMix(*mix)
	fatal(err)
	tls, err := load.ParseLoads(*loads, defMix)
	fatal(err)
	if rateOverride > 0 {
		for i := range tls {
			tls[i].Rate = rateOverride
		}
	}

	base := *target
	switch {
	case *inproc && base != "":
		fatal(fmt.Errorf("-target and -inproc are mutually exclusive"))
	case *inproc:
		simN, err := cliutil.WorkerCount(*simWorkers)
		fatal(err)
		serverTenants, err := tenant.ParseList(*tenants)
		fatal(err)
		var shutdown func()
		base, _, shutdown, err = load.StartLocal(serve.Config{
			QueueDepth: *queueDepth,
			JobWorkers: *jobWorkers,
			SimWorkers: simN,
			Tenants:    serverTenants,
		})
		fatal(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "ndaload: in-process server on %s\n", base)
	case base == "":
		fatal(fmt.Errorf("need -target URL or -inproc"))
	}

	ctx, stop := cliutil.Context(0)
	defer stop()

	cfg := load.Config{
		BaseURL:  base,
		Loads:    tls,
		Duration: *duration,
		Await:    mode,
		Warmup:   *warmup,
	}
	rep, err := load.Run(ctx, cfg)
	fatal(err)
	printReport(rep)

	var sat *load.Saturation
	if *saturation {
		satCfg := cfg
		satCfg.Loads = tls[:1]
		satCfg.Warmup = false // the mix run already warmed the cache
		sat, err = load.Saturate(ctx, satCfg, *satMax)
		fatal(err)
		fmt.Fprintf(os.Stderr, "saturation: %.1f req/s at %d workers", sat.Throughput, sat.Workers)
		for _, p := range sat.Points {
			fmt.Fprintf(os.Stderr, "  [%d: %.1f]", p.Workers, p.Throughput)
		}
		fmt.Fprintln(os.Stderr)
	}

	if *jsonOut {
		out := struct {
			*load.Report
			Saturation *load.Saturation `json:"saturation,omitempty"`
		}{rep, sat}
		buf, err := json.MarshalIndent(out, "", "  ")
		fatal(err)
		fmt.Println(string(buf))
	}
	if *bench != "" {
		fmt.Println(load.BenchLine(*bench, rep))
		if sat != nil {
			fmt.Printf("BenchmarkLoad%sSaturation 1 0 ns/op %.1f req/s %d sat-workers\n",
				*bench, sat.Throughput, sat.Workers)
		}
	}

	failed := false
	gate := func(ok bool, format string, args ...any) {
		if !ok {
			failed = true
			fmt.Fprintf(os.Stderr, "ndaload: SLO FAIL: "+format+"\n", args...)
		}
	}
	if *sloWarmP99 > 0 {
		p99 := time.Duration(rep.Latency.P99 * float64(time.Millisecond))
		gate(rep.Completed > 0 && p99 <= *sloWarmP99, "p99 %.2fms over %v (completed %d)", rep.Latency.P99, *sloWarmP99, rep.Completed)
	}
	if *minJain > 0 {
		gate(rep.JainWeighted >= *minJain, "weighted Jain %.3f below %.3f", rep.JainWeighted, *minJain)
	}
	if *minTenant > 0 {
		for _, tr := range rep.Tenants {
			gate(tr.Completed >= *minTenant, "tenant %s completed %d < %d", tr.Name, tr.Completed, *minTenant)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printReport writes the human-readable run summary to stderr (stdout is
// reserved for -json and -bench output).
func printReport(r *load.Report) {
	fmt.Fprintf(os.Stderr, "ndaload: %.1fs %s: %d requests, %d completed, %d rejected, %d errors, %.1f req/s\n",
		r.DurationSec, r.Await, r.Requests, r.Completed, r.Rejected, r.Errors, r.Throughput)
	fmt.Fprintf(os.Stderr, "  latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f   jain %.3f (weighted %.3f)\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Max, r.Jain, r.JainWeighted)
	for _, tr := range r.Tenants {
		fmt.Fprintf(os.Stderr, "  %-10s %-8s w%-3d %5d done %4d rej %4d quota %3d err  %7.1f req/s  p99 %.2fms\n",
			tr.Name, tr.Mix, tr.Weight, tr.Completed, tr.Rejected, tr.Quota, tr.Errors, tr.Throughput, tr.Latency.P99)
	}
}
