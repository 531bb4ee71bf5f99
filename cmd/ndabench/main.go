// Command ndabench runs the paper's performance evaluation and prints each
// table and figure as text:
//
//	ndabench                    # everything (Fig 7, Table 2/3, Fig 9a-e)
//	ndabench -quick             # reduced sampling for a fast smoke run
//	ndabench -experiments fig7,table2
//	ndabench -workloads mcf,gcc,bwaves
//	ndabench -timeout 5m        # abort (with cores stopped mid-cell) after 5 minutes
//	ndabench -remote http://coordinator:8090   # sweep served by ndaserve (or a fleet)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"nda/internal/cliutil"
	"nda/internal/core"
	"nda/internal/dist"
	"nda/internal/harness"
	"nda/internal/ooo"
	"nda/internal/serve"
	"nda/internal/workload"
)

func main() {
	var (
		quick       = flag.Bool("quick", false, "reduced sampling (faster, noisier)")
		experiments = flag.String("experiments", "table3,fig5,fig7,table2,fig9a,fig9bcd,fig9e", "comma-separated list")
		workloads   = flag.String("workloads", "", "benchmark subset (default: all 23 SPEC proxies)")
		verbose     = flag.Bool("v", false, "print per-cell progress")
		jsonOut     = flag.String("json", "", "also write the raw sweep measurements to this file as JSON")
		checkpoints = flag.Bool("checkpoints", false, "sample via functional-fast-forward checkpoints (Lapidary/SMARTS style)")
		workers     = flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU); results are identical for any value")
		timeout     = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); SIGINT/SIGTERM cancel the same way")
		remote      = flag.String("remote", "", "fetch the sweep from this ndaserve URL (a single server or a fleet coordinator) instead of simulating in-process; sweep results are byte-compatible either way")
	)
	flag.Parse()

	nworkers, err := cliutil.WorkerCount(*workers)
	check(err)
	tmo, err := cliutil.Timeout(*timeout)
	check(err)
	if *remote != "" {
		_, err := dist.ParseWorkerURL(*remote)
		check(err)
	}

	// The context reaches every simulation core: on timeout or signal,
	// queued cells never start, in-flight cells stop within a few thousand
	// simulated cycles, and no further progress lines are printed.
	ctx, cancel := cliutil.Context(tmo)
	defer cancel()

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.Quick()
	}
	cfg.UseCheckpoints = *checkpoints
	cfg.Workers = nworkers

	specs, err := cliutil.Specs(*workloads)
	check(err)

	want := map[string]bool{}
	for _, e := range strings.Split(*experiments, ",") {
		want[strings.TrimSpace(e)] = true
	}

	if want["table3"] {
		fmt.Println(harness.RenderTable3(ooo.DefaultParams()))
	}
	if want["fig5"] {
		r, err := harness.MeasureFig5(ooo.DefaultParams())
		check(err)
		fmt.Println(harness.RenderFig5(r))
	}

	var sw *harness.Sweep
	if want["fig7"] || want["table2"] || want["fig9a"] || want["fig9bcd"] {
		if *remote != "" {
			sw, err = remoteSweep(ctx, *remote, specs, *quick, *checkpoints)
		} else {
			var progress func(string)
			if *verbose {
				progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
			}
			sw, err = harness.RunSweepCtx(ctx, specs, core.All(), true, cfg, progress)
		}
		check(err)
	}
	if sw != nil && *jsonOut != "" {
		buf, err := json.MarshalIndent(sw, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, buf, 0o644))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if want["fig7"] {
		fmt.Println(harness.RenderFig7(sw))
	}
	if want["table2"] {
		fmt.Println(harness.RenderTable2(sw))
	}
	if want["fig9a"] {
		fmt.Println(harness.RenderFig9a(sw))
	}
	if want["fig9bcd"] {
		fmt.Println(harness.RenderFig9bcd(sw))
	}
	if want["fig9e"] {
		names := []string{"gcc", "deepsjeng", "xalancbmk", "perlbench"}
		if *workloads != "" {
			names = nil
			for _, s := range specs {
				names = append(names, s.Name)
			}
		}
		rs, err := harness.RunFig9eCtx(ctx, "Permissive", []int{0, 1, 2}, names, cfg)
		check(err)
		fmt.Println(harness.RenderFig9e(rs))
	}
}

// remoteSweep fetches the sweep from a running ndaserve — a single server
// or a fleet coordinator; the returned grid is the same one a local
// harness.RunSweepCtx builds, so every renderer downstream is unchanged.
// Table 3, Fig. 5, and Fig. 9e still run in-process: they are single
// measurements, not sweeps.
func remoteSweep(ctx context.Context, base string, specs []workload.Spec, quick, checkpoints bool) (*harness.Sweep, error) {
	req := serve.SweepRequest{Sampling: serve.SamplingSpec{Quick: quick, Checkpoints: checkpoints}}
	for _, s := range specs {
		req.Workloads = append(req.Workloads, s.Name)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("remote sweep: %w", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("remote sweep: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote sweep: %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	var sr serve.SweepResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		return nil, fmt.Errorf("remote sweep: undecodable response: %w", err)
	}
	return sr.Sweep, nil
}

func check(err error) { cliutil.Check("ndabench", err) }
