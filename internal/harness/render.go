package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nda/internal/cache"
	"nda/internal/core"
	"nda/internal/ooo"
	"nda/internal/stats"
	"nda/internal/workload"
)

// RenderFig7 renders the per-benchmark CPI table normalized to the insecure
// OoO baseline, with 95% confidence intervals — the textual form of Fig. 7.
func RenderFig7(sw *Sweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — CPI normalized to OoO (mean of %d-interval samples, ±95%% CI of raw CPI)\n\n", intervalsIn(sw))
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, c := range sw.Configs {
		fmt.Fprintf(&b, " %12s", shorten(c))
	}
	fmt.Fprintln(&b)
	for _, w := range sw.Workloads {
		fmt.Fprintf(&b, "%-12s", w)
		for _, c := range sw.Configs {
			m := sw.Get(c, w)
			if m == nil {
				fmt.Fprintf(&b, " %12s", "-")
				continue
			}
			base := sw.Baseline(w)
			rel := 0.0
			ci := 0.0
			if base != nil && base.CPI.Mean > 0 {
				rel = m.CPI.Mean / base.CPI.Mean
				ci = m.CPI.CI95 / base.CPI.Mean
			}
			fmt.Fprintf(&b, " %7.2f±%-4.2f", rel, ci)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "mean")
	for _, c := range sw.Configs {
		fmt.Fprintf(&b, " %12.2f", sw.MeanNormalizedCPI(c))
	}
	fmt.Fprintln(&b)
	return b.String()
}

func intervalsIn(sw *Sweep) int {
	for _, ws := range sw.Cells {
		for _, m := range ws {
			return m.CPI.N
		}
	}
	return 0
}

func shorten(c string) string {
	r := strings.NewReplacer("Permissive", "Perm", "InvisiSpec", "IS", "Protection", "Prot", "Restricted", "Restr")
	s := r.Replace(c)
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// SecurityColumns is the Table 2 security legend per configuration.
var SecurityColumns = map[string]string{
	"OoO":                "none (insecure baseline)",
	"Permissive":         "control-steering (memory); not SSB",
	"Permissive+BR":      "control-steering (memory) incl. SSB",
	"Strict":             "control-steering (memory+GPRs); not SSB",
	"Strict+BR":          "control-steering (memory+GPRs) incl. SSB",
	"RestrictedLoads":    "chosen-code (memory+special regs)",
	"FullProtection":     "all control-steering + chosen-code",
	"InvisiSpec-Spectre": "d-cache control-steering only",
	"InvisiSpec-Future":  "d-cache attacks only",
	InOrderName:          "everything (no speculation)",
}

// RenderTable2 renders the overhead column of Table 2 with the threat-model
// legend.
func RenderTable2(sw *Sweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — average overhead vs insecure OoO, and what each policy defeats\n\n")
	fmt.Fprintf(&b, "%-20s %10s   %s\n", "configuration", "overhead", "defeats")
	for _, c := range sw.Configs {
		fmt.Fprintf(&b, "%-20s %+9.1f%%   %s\n", c, sw.Overhead(c), SecurityColumns[c])
	}
	oooN := sw.MeanNormalizedCPI("OoO")
	inN := sw.MeanNormalizedCPI(InOrderName)
	if inN > oooN {
		fmt.Fprintln(&b)
		for _, c := range sw.Configs {
			if c == "OoO" || c == InOrderName {
				continue
			}
			v := sw.MeanNormalizedCPI(c)
			fmt.Fprintf(&b, "%-20s closes %3.0f%% of the In-Order/OoO gap; %.1fx faster than in-order\n",
				c, 100*(inN-v)/(inN-oooN), inN/v)
		}
	}
	return b.String()
}

// RenderTable3 renders the simulated machine configuration.
func RenderTable3(p ooo.Params) string {
	h := cache.DefaultHierarchyParams()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — simulated machine configuration\n\n")
	fmt.Fprintf(&b, "%-18s %s\n", "Architecture", "custom RISC-style 64-bit ISA at 2.0 GHz (cycle-level model)")
	fmt.Fprintf(&b, "%-18s %d-issue, no SMT, %d LQ, %d SQ, %d ROB entries, %d IQ,\n",
		"Core (OoO)", p.IssueWidth, p.LQSize, p.SQSize, p.ROBSize, p.IQSize)
	fmt.Fprintf(&b, "%-18s %d BTB entries (%d-way), %d RAS entries, gshare 2^%d,\n", "",
		p.BTBEntries, p.BTBWays, p.RASEntries, p.GshareBits)
	fmt.Fprintf(&b, "%-18s %d broadcast ports, %d physical registers\n", "", p.BroadcastPorts, p.PhysRegs)
	fmt.Fprintf(&b, "%-18s single-issue blocking pipeline (TimingSimpleCPU analogue)\n", "Core (in-order)")
	fmt.Fprintf(&b, "%-18s %dkB, %dB line, %d-way SA, %d cycle RT latency\n", "L1-I/L1-D",
		h.L1D.SizeBytes>>10, h.L1D.LineBytes, h.L1D.Ways, h.L1D.HitLatency)
	fmt.Fprintf(&b, "%-18s %dMB, %dB line, %d-way SA, %d cycle RT latency\n", "L2",
		h.L2.SizeBytes>>20, h.L2.LineBytes, h.L2.Ways, h.L2.HitLatency)
	fmt.Fprintf(&b, "%-18s %d cycle (50ns) response latency\n", "DRAM", h.DRAMLatency)
	return b.String()
}

// RenderFig9a renders the cycle breakdown per configuration, with each bar
// scaled by the configuration's normalized CPI (as in the paper, where the
// stacks grow with overhead).
func RenderFig9a(sw *Sweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9a — cycle breakdown, normalized to OoO total cycles\n\n")
	fmt.Fprintf(&b, "%-20s %8s %8s %8s %8s %8s\n", "configuration", "commit", "memory", "backend", "frontend", "total")
	for _, c := range sw.Configs {
		if c == InOrderName {
			continue
		}
		scale := sw.MeanNormalizedCPI(c)
		var cf, mf, bf, ff []float64
		for _, w := range sw.Workloads {
			if m := sw.Get(c, w); m != nil {
				cf = append(cf, m.CommitFrac)
				mf = append(mf, m.MemFrac)
				bf = append(bf, m.BackendFrac)
				ff = append(ff, m.FrontendFrac)
			}
		}
		fmt.Fprintf(&b, "%-20s %8.2f %8.2f %8.2f %8.2f %8.2f\n", c,
			stats.Mean(cf)*scale, stats.Mean(mf)*scale, stats.Mean(bf)*scale, stats.Mean(ff)*scale, scale)
	}
	return b.String()
}

// RenderFig9bcd renders MLP, ILP, and dispatch→issue latency aggregates
// (Fig. 9b, 9c, 9d).
func RenderFig9bcd(sw *Sweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9b/9c/9d — memory-level parallelism, instruction-level parallelism,\n")
	fmt.Fprintf(&b, "and dispatch→issue latency (geomean MLP/ILP, mean latency over benchmarks)\n\n")
	fmt.Fprintf(&b, "%-20s %8s %8s %14s\n", "configuration", "MLP", "ILP", "disp→issue")
	for _, c := range sw.Configs {
		var mlp, ilp, d2i []float64
		for _, w := range sw.Workloads {
			if m := sw.Get(c, w); m != nil {
				mlp = append(mlp, m.MLP)
				ilp = append(ilp, m.ILP)
				d2i = append(d2i, m.D2I)
			}
		}
		fmt.Fprintf(&b, "%-20s %8.2f %8.2f %11.1f cy\n", c, stats.Geomean(mlp), stats.Geomean(ilp), stats.Mean(d2i))
	}
	return b.String()
}

// Fig9eResult is one point of the NDA logic-latency sensitivity study.
type Fig9eResult struct {
	Policy string
	Delay  int
	CPI    float64
}

// RunFig9eCtx measures CPI sensitivity to extra NDA wake-up latency (0, 1,
// and 2 cycles of delayed broadcast for newly-safe instructions) for the
// given base policy across the benchmark list, with continuous sampling
// whatever cfg.UseCheckpoints says. The (delay, benchmark) points run as
// the cells of one sweep, over cfg.Workers goroutines, so the results are
// independent of scheduling and cancellation works as in RunSweepCtx.
func RunFig9eCtx(ctx context.Context, policyName string, delays []int, specNames []string, cfg Config) ([]Fig9eResult, error) {
	specs := make([]workload.Spec, len(specNames))
	for i, name := range specNames {
		s, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	basePol, err := core.ByName(policyName)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(delays)*len(specs))
	for _, d := range delays {
		pol := basePol
		pol.ExtraBroadcastDelay = d
		for _, spec := range specs {
			cells = append(cells, Cell{Spec: spec, Policy: pol})
		}
	}
	cfg.UseCheckpoints = false
	ms, err := measureCells(ctx, cells, cfg, nil)
	if err != nil {
		return nil, err
	}
	cpis := make([]float64, len(ms))
	for i, m := range ms {
		cpis[i] = m.CPI.Mean
	}
	out := make([]Fig9eResult, len(delays))
	for di, d := range delays {
		out[di] = Fig9eResult{
			Policy: policyName,
			Delay:  d,
			CPI:    stats.Mean(cpis[di*len(specs) : (di+1)*len(specs)]),
		}
	}
	return out, nil
}

// RenderFig9e renders the sensitivity results.
func RenderFig9e(rs []Fig9eResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9e — impact of NDA wake-up logic latency on CPI\n\n")
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Delay < rs[j].Delay })
	var base float64
	for _, r := range rs {
		if r.Delay == 0 {
			base = r.CPI
		}
	}
	for _, r := range rs {
		delta := 0.0
		if base > 0 {
			delta = (r.CPI/base - 1) * 100
		}
		fmt.Fprintf(&b, "%s, %d-cycle delay: CPI %.3f (%+.1f%%)\n", r.Policy, r.Delay, r.CPI, delta)
	}
	return b.String()
}
