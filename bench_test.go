package nda

// One benchmark per table and figure of the paper's evaluation section,
// plus micro-benchmarks of the simulator substrates. Each Fig/Table bench
// regenerates (a reduced form of) the corresponding experiment per
// iteration and reports the experiment's headline number as a custom
// metric, so `go test -bench=. -benchmem` both exercises and summarizes
// the reproduction. cmd/ndabench and cmd/ndattack produce the full-size
// versions.

import (
	"context"
	"testing"

	"nda/internal/analysis"
	"nda/internal/asm"
	"nda/internal/attack"
	"nda/internal/checkpoint"
	"nda/internal/core"
	"nda/internal/diffuzz"
	"nda/internal/emu"
	"nda/internal/harness"
	"nda/internal/inorder"
	"nda/internal/ooo"
	"nda/internal/serve"
	"nda/internal/store"
	"nda/internal/workload"
)

// benchConfig is a reduced sampling methodology sized for benchmarking.
func benchConfig() harness.Config {
	cfg := harness.Quick()
	cfg.WarmInsts = 3_000
	cfg.MeasureInsts = 3_000
	cfg.SkipInsts = 1_000
	cfg.Intervals = 3
	return cfg
}

func benchSpecs(b *testing.B, names ...string) []workload.Spec {
	b.Helper()
	var out []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// --- Fig. 4: Spectre v1 leak series on insecure OoO ---

func BenchmarkFig4SpectreV1CacheBaseline(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		out, err := attack.Run(attack.SpectreV1Cache, core.Baseline(), ooo.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if !out.Leaked {
			b.Fatal("baseline must leak")
		}
		margin = out.Margin
	}
	b.ReportMetric(margin, "leak-margin-cycles")
}

func BenchmarkFig4SpectreV1BTBBaseline(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		out, err := attack.Run(attack.SpectreV1BTB, core.Baseline(), ooo.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if !out.Leaked {
			b.Fatal("baseline must leak via the BTB")
		}
		margin = out.Margin
	}
	b.ReportMetric(margin, "leak-margin-cycles")
}

// --- Fig. 5: BTB misprediction penalty ---

func BenchmarkFig5BTBMispredict(b *testing.B) {
	var penalty int64
	for i := 0; i < b.N; i++ {
		r, err := harness.MeasureFig5(ooo.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		penalty = r.Penalty()
	}
	b.ReportMetric(float64(penalty), "penalty-cycles")
}

// --- Fig. 8: the same attacks blocked under NDA ---

func BenchmarkFig8SpectreV1UnderNDA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []attack.Kind{attack.SpectreV1Cache, attack.SpectreV1BTB} {
			out, err := attack.Run(kind, core.Permissive(), ooo.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			if out.Leaked {
				b.Fatalf("%s must be blocked", kind)
			}
		}
	}
}

// --- Tables 1 & 2 (security): the full attack x policy matrix ---

func BenchmarkTable2AttackMatrix(b *testing.B) {
	var matched float64
	for i := 0; i < b.N; i++ {
		cells, err := attack.Matrix(ooo.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		matched = 0
		for _, c := range cells {
			if c.Matches() {
				matched++
			}
		}
		if int(matched) != len(cells) {
			b.Fatalf("%d/%d matrix cells match the paper", int(matched), len(cells))
		}
	}
	b.ReportMetric(matched, "cells-matching-paper")
}

// --- Fig. 7 / Table 2 (performance): normalized CPI per policy ---

func BenchmarkFig7CPI(b *testing.B) {
	specs := benchSpecs(b, "gcc", "exchange2", "bwaves", "xalancbmk")
	pols := []core.Policy{core.Baseline(), core.Permissive(), core.FullProtection()}
	var permOverhead float64
	for i := 0; i < b.N; i++ {
		sw, err := harness.RunSweep(specs, pols, true, benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		permOverhead = sw.Overhead("Permissive")
	}
	b.ReportMetric(permOverhead, "perm-overhead-pct")
}

func BenchmarkTable2Overheads(b *testing.B) {
	specs := benchSpecs(b, "gcc", "mcf")
	var fullOverhead float64
	for i := 0; i < b.N; i++ {
		sw, err := harness.RunSweep(specs, []core.Policy{core.Baseline(), core.FullProtection()}, false, benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		fullOverhead = sw.Overhead("FullProtection")
	}
	b.ReportMetric(fullOverhead, "full-overhead-pct")
}

// --- Fig. 9a-d: breakdown, MLP, ILP, dispatch->issue ---

func BenchmarkFig9Aggregates(b *testing.B) {
	specs := benchSpecs(b, "gcc", "bwaves")
	var mlp float64
	for i := 0; i < b.N; i++ {
		sw, err := harness.RunSweep(specs, []core.Policy{core.Baseline(), core.Strict()}, false, benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		m := sw.Get("Strict", "bwaves")
		mlp = m.MLP
		_ = harness.RenderFig9a(sw)
		_ = harness.RenderFig9bcd(sw)
	}
	b.ReportMetric(mlp, "strict-bwaves-MLP")
}

// --- Fig. 9e: NDA logic latency sensitivity ---

func BenchmarkFig9eLogicLatency(b *testing.B) {
	var deltaPct float64
	for i := 0; i < b.N; i++ {
		rs, err := harness.RunFig9e("Permissive", []int{0, 1}, []string{"gcc"}, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		deltaPct = (rs[1].CPI/rs[0].CPI - 1) * 100
	}
	b.ReportMetric(deltaPct, "1cy-delay-cpi-pct")
}

// --- the 92-cell quick sweep: the repo's headline wall-clock number ---

// BenchmarkQuickSweep92 runs the standard 92-cell quick sweep (all 23 SPEC
// proxies under OoO, Permissive, and FullProtection, plus the in-order
// bound) exactly as ndaserve's smoke requests do. Its ns/op is the sweep's
// wall-clock; the BENCH_*.json trajectory pins it across PRs.
func BenchmarkQuickSweep92(b *testing.B) {
	specs := workload.SPEC()
	pols := []core.Policy{core.Baseline(), core.Permissive(), core.FullProtection()}
	cfg := harness.Quick()
	var cells float64
	for i := 0; i < b.N; i++ {
		sw, err := harness.RunSweep(specs, pols, true, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		cells = float64(len(specs)) * float64(len(pols)+1)
		_ = sw
	}
	b.ReportMetric(cells, "cells")
}

// --- persistent store: warm-restart latency ---

// BenchmarkStoreWarmRestart measures restart-to-warm latency for a
// store-backed ndaserve: each iteration re-opens the persistent store
// (recovery scan included), boots a fresh manager with a cold RAM cache,
// and replays a pre-populated 12-cell sweep entirely from the disk tier.
// ns/op is the full restart-and-replay cost with zero simulations; the
// BENCH_*.json trajectory pins it across PRs.
func BenchmarkStoreWarmRestart(b *testing.B) {
	dir := b.TempDir()
	req := serve.SweepRequest{
		Workloads: []string{"gcc", "mcf", "exchange2", "bwaves"},
		Policies:  []string{"OoO", "Permissive"},
		Sampling: serve.SamplingSpec{
			Quick: true, WarmInsts: 2_000, MeasureInsts: 2_000, SkipInsts: 1_000, Intervals: 3,
		},
	}
	const cells = 12 // 4 workloads x (2 policies + in-order)

	restart := func() (*serve.Manager, *store.Store) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return serve.NewManager(serve.Config{QueueDepth: 4, JobWorkers: 1, Store: st}), st
	}
	sweep := func(m *serve.Manager) serve.Status {
		j, err := m.SubmitSweep(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		return j.Status()
	}
	stop := func(m *serve.Manager, st *store.Store) {
		if err := m.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}

	// Populate the store once, outside the timed window (the "cold" boot).
	m, st := restart()
	if got := sweep(m); got.Tiers.Computed != cells {
		b.Fatalf("cold populate tiers = %+v, want %d computed", got.Tiers, cells)
	}
	stop(m, st)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, st := restart()
		if got := sweep(m); got.Tiers.Disk != cells || got.Tiers.Computed != 0 {
			b.Fatalf("warm replay tiers = %+v, want %d disk", got.Tiers, cells)
		}
		b.StopTimer()
		stop(m, st)
		b.StartTimer()
	}
	b.ReportMetric(cells, "cells-replayed")
}

// --- differential soundness checker ---

// BenchmarkDiffuzz runs the differential checker over a fixed 100-seed
// range: per program, generation, static analysis, two reference-emulator
// runs and 18 sanitized timing runs on one reset core. Its allocs/op rides
// the BENCH_*.json trajectory, so building a core per timing run again —
// about 1.2 MB each — fails the bench-trajectory gate.
func BenchmarkDiffuzz(b *testing.B) {
	b.ReportAllocs()
	seeds := diffuzz.Seeds(1, 100)
	var programs float64
	for i := 0; i < b.N; i++ {
		s := diffuzz.Fuzz(seeds, 1)
		if s.Failed != 0 {
			b.Fatalf("%d/%d programs failed:\n%s", s.Failed, s.Programs, s)
		}
		programs = float64(s.Programs)
	}
	b.ReportMetric(programs*float64(b.N)/b.Elapsed().Seconds(), "programs/s")
}

// --- substrate micro-benchmarks ---

// BenchmarkOoOSimThroughput measures simulator speed in simulated
// instructions per wall second on a compute-bound workload. Core
// construction happens outside the timed window, so allocs/op covers the
// simulation hot path alone — the bench-trajectory CI job pins it at zero.
func BenchmarkOoOSimThroughput(b *testing.B) {
	spec, _ := workload.ByName("exchange2")
	prog := spec.Build(1 << 40)
	b.ResetTimer()
	total, cycles := 0.0, 0.0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := ooo.NewFromProgram(prog, core.Baseline(), ooo.DefaultParams())
		b.StartTimer()
		if err := c.RunInsts(50_000, 10_000_000); err != nil {
			b.Fatal(err)
		}
		total += float64(c.Retired())
		cycles += float64(c.Cycles())
	}
	b.ReportMetric(total/b.Elapsed().Seconds(), "sim-inst/s")
	b.ReportMetric(cycles/b.Elapsed().Seconds(), "sim-cycles/s")
}

func BenchmarkOoOSimThroughputMemoryBound(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	prog := spec.Build(1 << 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := ooo.NewFromProgram(prog, core.Baseline(), ooo.DefaultParams())
		b.StartTimer()
		if err := c.RunInsts(20_000, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInOrderSimThroughput(b *testing.B) {
	spec, _ := workload.ByName("exchange2")
	prog := spec.Build(1 << 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := inorder.NewFromProgram(prog, inorder.DefaultParams())
		if err := m.RunInsts(50_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulator(b *testing.B) {
	spec, _ := workload.ByName("exchange2")
	prog := spec.Build(1 << 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(prog)
		if err := m.RunN(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembler(b *testing.B) {
	src := `
        .data
        .org 0x10000
buf:    .space 4096
tbl:    .word64 1, 2, 3, 4
        .text
main:   li   t0, 100
loop:   ld   t1, (s0)
        add  t2, t1, t0
        sd   t2, 8(s0)
        addi t0, t0, -1
        bne  t0, zero, loop
        call fn
        halt
fn:     ret
`
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomProgramGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.Random(int64(i), 200)
	}
}

// --- ablation benches (DESIGN.md design-decision checks) ---

// BenchmarkAblationBroadcastPorts quantifies the broadcast-port arbitration
// design point: NDA adds no ports, so a single-port machine shows how much
// the time-shifted broadcasts contend (paper §5.1).
func BenchmarkAblationBroadcastPorts(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	prog := spec.Build(1 << 40)
	var ratio float64
	for i := 0; i < b.N; i++ {
		cpis := map[int]float64{}
		for _, ports := range []int{8, 1} {
			p := ooo.DefaultParams()
			p.BroadcastPorts = ports
			c := ooo.NewFromProgram(prog, core.Strict(), p)
			if err := c.RunInsts(20_000, 50_000_000); err != nil {
				b.Fatal(err)
			}
			cpis[ports] = c.Stats().CPI()
		}
		ratio = cpis[1] / cpis[8]
	}
	b.ReportMetric(ratio, "1-port/8-port-CPI")
}

// BenchmarkAblationSpeculativeBTB quantifies the cost of disabling
// speculative BTB updates (which also closes the §3 covert channel).
func BenchmarkAblationSpeculativeBTB(b *testing.B) {
	spec, _ := workload.ByName("perlbench")
	prog := spec.Build(1 << 40)
	var ratio float64
	for i := 0; i < b.N; i++ {
		cpis := map[bool]float64{}
		for _, specUpd := range []bool{true, false} {
			p := ooo.DefaultParams()
			p.SpeculativeBTBUpdate = specUpd
			c := ooo.NewFromProgram(prog, core.Baseline(), p)
			if err := c.RunInsts(20_000, 50_000_000); err != nil {
				b.Fatal(err)
			}
			cpis[specUpd] = c.Stats().CPI()
		}
		ratio = cpis[false] / cpis[true]
	}
	b.ReportMetric(ratio, "nonspec/spec-BTB-CPI")
}

// BenchmarkCheckpointCapture measures the Lapidary-analogue snapshot cost.
func BenchmarkCheckpointCapture(b *testing.B) {
	spec, _ := workload.ByName("xz")
	prog := spec.Build(1 << 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Take(prog, 10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointedMeasurement measures the full checkpoint-sampling
// path the harness's UseCheckpoints mode uses.
func BenchmarkCheckpointedMeasurement(b *testing.B) {
	spec, _ := workload.ByName("exchange2")
	cfg := benchConfig()
	cfg.UseCheckpoints = true
	for i := 0; i < b.N; i++ {
		if _, err := harness.MeasureOoOCheckpointed(spec, core.Baseline(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNdavetRepo measures one full ndavet run over this repository:
// load + typecheck, call-graph construction with per-function dataflow
// summaries, and all eight passes. It rides the BENCH_*.json trajectory
// so a regression in the analyzer's wall-clock or allocation footprint
// is as visible as one in the simulator.
func BenchmarkNdavetRepo(b *testing.B) {
	b.ReportAllocs()
	var open int
	for i := 0; i < b.N; i++ {
		m, err := analysis.Load(".")
		if err != nil {
			b.Fatal(err)
		}
		report, err := analysis.RunAll(m, analysis.Config{})
		if err != nil {
			b.Fatal(err)
		}
		open = len(report.Open())
	}
	b.ReportMetric(float64(open), "open-findings")
}
