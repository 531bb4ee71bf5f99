package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"nda/internal/isa"
)

// Spec is one benchmark: a named, deterministic program generator. Build
// returns a program whose main loop runs iters times; the sampling harness
// passes a huge count and stops by instruction budget, while tests pass
// small counts and run to the HALT.
type Spec struct {
	Name        string
	Suite       string // "intrate", "fprate", or "generic"
	Description string
	Build       func(iters uint64) *isa.Program
}

// build wraps a benchmark body in the standard harness: functions and data
// are emitted by setup (before main, so call targets are resolved), then the
// main loop runs the returned body iters times.
func build(seed int64, setup func(k *kern) func()) func(uint64) *isa.Program {
	return func(iters uint64) *isa.Program {
		b := NewBuilder()
		k := &kern{b: b, r: rand.New(rand.NewSource(seed))}
		body := setup(k)
		b.Label("main")
		b.SetEntry()
		k.prologue()
		b.Li(rOuter, iters)
		top := b.PC()
		body()
		b.OpI(isa.OpAddi, rOuter, rOuter, -1)
		b.Branch(isa.OpBne, rOuter, isa.RegZero, top)
		b.Halt()
		return b.Program()
	}
}

// Working-set sizes. The L2 is 2MB: "big" regions miss it, "small" ones
// live in L1.
const (
	wsL1  = 16 << 10
	wsL2  = 512 << 10
	wsBig = 8 << 20
)

// SPEC returns the 23 SPEC CPU 2017 proxy benchmarks used by the Fig. 7
// evaluation. Each is a synthetic kernel reproducing the named benchmark's
// dominant micro-architectural bottleneck — not the benchmark itself.
func SPEC() []Spec {
	return []Spec{
		// --- integer suite proxies ---
		{"perlbench", "intrate", "interpreter: call-heavy with unpredictable dispatch", build(101, func(k *kern) func() {
			cs := k.emitCallFuncs(6)
			k.patternData(wsL1)
			k.tableData(wsL2)
			return func() {
				k.calls(cs, 6)
				k.branchy(4, wsL1)
				k.gather2hop(1, wsL2)
				k.scatterIndirect(1, wsL2)
				k.compute(2, false)
			}
		})},
		{"gcc", "intrate", "compiler: branchy pointer-structure walks", build(102, func(k *kern) func() {
			k.patternData(wsL2)
			k.tableData(wsL2)
			return func() { k.branchy(4, wsL2); k.branchyGather(2, wsL2); k.scatterIndirect(1, wsL2); k.compute(2, false) }
		})},
		{"mcf", "intrate", "network simplex: pointer chasing over a large graph", build(103, func(k *kern) func() {
			k.chaseData(wsBig / 64)
			k.patternData(wsL2)
			return func() { k.chase(4); k.branchyGather(1, wsL2); k.compute(1, false) }
		})},
		{"omnetpp", "intrate", "discrete event simulation: chase + calls", build(104, func(k *kern) func() {
			cs := k.emitCallFuncs(4)
			k.chaseData(wsL2 / 64)
			k.patternData(wsL2)
			return func() { k.chase(3); k.calls(cs, 3); k.branchyGather(1, wsL2); k.compute(1, false) }
		})},
		{"xalancbmk", "intrate", "XML transform: irregular table lookups + branches", build(105, func(k *kern) func() {
			k.tableData(wsBig)
			k.patternData(wsL2)
			return func() {
				k.randomAccess(2, wsBig)
				k.branchyGather(1, wsL2)
				k.scatterIndirect(1, wsBig)
				k.sortish(2, wsL1)
			}
		})},
		{"x264", "intrate", "video encode: dense arithmetic over streams", build(106, func(k *kern) func() {
			return func() { k.stream(4, wsL2, false); k.compute(6, true); k.bitops(3) }
		})},
		{"deepsjeng", "intrate", "chess search: unpredictable branches", build(107, func(k *kern) func() {
			k.patternData(wsL2)
			return func() { k.branchy(6, wsL1); k.branchyGather(2, wsL2); k.compute(3, false) }
		})},
		{"leela", "intrate", "go engine: branchy tree walks with calls", build(108, func(k *kern) func() {
			cs := k.emitCallFuncs(3)
			k.patternData(wsL2)
			return func() { k.branchy(4, wsL1); k.branchyGather(2, wsL2); k.calls(cs, 2); k.compute(2, true) }
		})},
		{"exchange2", "intrate", "puzzle solver: pure integer compute, high IPC", build(109, func(k *kern) func() {
			return func() { k.compute(12, true) }
		})},
		{"xz", "intrate", "compression: bit twiddling + table lookups", build(110, func(k *kern) func() {
			k.tableData(wsL1)
			k.patternData(wsL1)
			return func() { k.bitops(6); k.gather2hop(1, wsL1); k.branchy(3, wsL1) }
		})},

		// --- floating-point suite proxies ---
		{"bwaves", "fprate", "explicit CFD: long unit-stride streams", build(201, func(k *kern) func() {
			return func() { k.stream(8, wsBig, false) }
		})},
		{"cactuBSSN", "fprate", "numerical relativity: wide stencils", build(202, func(k *kern) func() {
			return func() { k.stencil(6, wsBig); k.compute(2, true) }
		})},
		{"namd", "fprate", "molecular dynamics: dot products over pair lists", build(203, func(k *kern) func() {
			k.tableData(wsL2)
			return func() { k.dotProduct(5, wsL2); k.gather2hop(1, wsL2); k.compute(2, true) }
		})},
		{"parest", "fprate", "finite elements: sparse gather + dense math", build(204, func(k *kern) func() {
			k.tableData(wsBig)
			return func() { k.gather2hop(1, wsBig); k.scatterIndirect(1, wsBig); k.dotProduct(4, wsL2) }
		})},
		{"povray", "fprate", "ray tracing: compute + branches + calls", build(205, func(k *kern) func() {
			cs := k.emitCallFuncs(4)
			k.patternData(wsL1)
			return func() { k.compute(5, true); k.branchy(3, wsL1); k.calls(cs, 2) }
		})},
		{"lbm", "fprate", "lattice Boltzmann: streaming loads AND stores", build(206, func(k *kern) func() {
			return func() { k.stream(8, wsBig, true) }
		})},
		{"wrf", "fprate", "weather model: stencil + stream mix", build(207, func(k *kern) func() {
			return func() { k.stencil(4, wsBig); k.stream(3, wsL2, false) }
		})},
		{"blender", "fprate", "rendering: compute over irregular geometry", build(208, func(k *kern) func() {
			k.tableData(wsL2)
			return func() { k.compute(4, true); k.gather2hop(1, wsL2); k.scatterIndirect(1, wsL2) }
		})},
		{"cam4", "fprate", "atmosphere model: stencil + conditionals", build(209, func(k *kern) func() {
			k.patternData(wsL1)
			return func() { k.stencil(4, wsL2); k.branchy(3, wsL1) }
		})},
		{"imagick", "fprate", "image processing: dense per-pixel compute", build(210, func(k *kern) func() {
			return func() { k.compute(8, true); k.stream(2, wsL2, true) }
		})},
		{"nab", "fprate", "molecular modelling: compute + gathers", build(211, func(k *kern) func() {
			k.tableData(wsL2)
			return func() { k.compute(5, true); k.gather2hop(1, wsL2) }
		})},
		{"fotonik3d", "fprate", "electromagnetics: large streaming sweeps", build(212, func(k *kern) func() {
			return func() { k.stream(6, wsBig, true); k.stencil(2, wsBig) }
		})},
		{"roms", "fprate", "ocean model: stream + stencil", build(213, func(k *kern) func() {
			k.tableData(wsL2)
			return func() { k.stream(4, wsBig, false); k.stencil(4, wsL2); k.scatterIndirect(1, wsL2) }
		})},
	}
}

// Generic returns standalone single-kernel workloads, useful for targeted
// experiments and ablations.
func Generic() []Spec {
	return []Spec{
		{"pchase-l2", "generic", "pointer chase, L2-resident", build(301, func(k *kern) func() {
			k.chaseData(wsL2 / 64)
			return func() { k.chase(8) }
		})},
		{"pchase-mem", "generic", "pointer chase, DRAM-resident", build(302, func(k *kern) func() {
			k.chaseData(wsBig / 64)
			return func() { k.chase(8) }
		})},
		{"stream", "generic", "unit-stride streaming loads", build(303, func(k *kern) func() {
			return func() { k.stream(8, wsBig, false) }
		})},
		{"branchy", "generic", "data-dependent unpredictable branches", build(304, func(k *kern) func() {
			k.patternData(wsL1)
			return func() { k.branchy(8, wsL1) }
		})},
		{"compute", "generic", "dependent integer arithmetic", build(305, func(k *kern) func() {
			return func() { k.compute(10, true) }
		})},
		{"calls", "generic", "call/return heavy", build(306, func(k *kern) func() {
			cs := k.emitCallFuncs(8)
			return func() { k.calls(cs, 8) }
		})},
		{"gather", "generic", "random gathers from a DRAM-sized table", build(307, func(k *kern) func() {
			k.tableData(wsBig)
			return func() { k.randomAccess(6, wsBig) }
		})},
	}
}

// All returns SPEC() followed by Generic().
func All() []Spec { return append(SPEC(), Generic()...) }

// byName indexes All(), built by the first lookup. A Spec's Build keeps no
// state between calls, so every caller can share the one value.
var byName = sync.OnceValue(func() map[string]Spec {
	all := All()
	m := make(map[string]Spec, len(all))
	for _, s := range all {
		m[s.Name] = s
	}
	return m
})

// ByName finds a spec by name in All().
func ByName(name string) (Spec, error) {
	if s, ok := byName()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
