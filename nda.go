// Package nda is a from-scratch reproduction of "NDA: Preventing
// Speculative Execution Attacks at Their Source" (Weisse, Neal, Loughlin,
// Wenisch, Kasikci — MICRO-52, 2019) as a self-contained Go library.
//
// The package bundles:
//
//   - a cycle-level out-of-order core (rename, ROB, issue queue, LSQ,
//     branch prediction, wrong-path execution, precise exceptions) over a
//     RISC-style 64-bit ISA with an assembler and a reference emulator;
//   - the six NDA speculative-data-propagation policies of the paper
//     (permissive/strict, ±bypass restriction, load restriction, full
//     protection), plus InvisiSpec-style comparators and an in-order
//     baseline;
//   - executable proofs-of-concept for six speculative execution attacks
//     (Spectre v1 over the D-cache and over the BTB, Meltdown, speculative
//     store bypass, a LazyFP analogue, and the hypothetical GPR-steering
//     attack), with leak verdicts checked against the paper's Table 2;
//   - 23 SPEC CPU 2017 proxy workloads and a SMARTS-style sampling harness
//     that regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	prog, err := nda.Assemble(`
//	main:   li   t0, 1
//	        li   t1, 10
//	loop:   add  t0, t0, t0
//	        addi t1, t1, -1
//	        bne  t1, zero, loop
//	        halt
//	`)
//	core := nda.NewCore(prog, nda.FullProtection(), nda.DefaultParams())
//	err = core.Run(1_000_000)
//	fmt.Println(core.Stats().CPI())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every experiment.
package nda

import (
	"context"

	"nda/internal/asm"
	"nda/internal/attack"
	"nda/internal/core"
	"nda/internal/harness"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/trace"
	"nda/internal/workload"
)

// ---- ISA and programs ----

// Program is an assembled or generated program.
type Program = isa.Program

// Inst is one decoded instruction.
type Inst = isa.Inst

// Assemble translates assembler source into a Program. See package
// internal/asm for the accepted syntax.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// MustAssemble is Assemble but panics on error.
func MustAssemble(source string) *Program { return asm.MustAssemble(source) }

// ---- policies (the paper's Table 2 rows) ----

// Policy is one NDA propagation policy / evaluated configuration.
type Policy = core.Policy

// The evaluated configurations.
func Baseline() Policy                         { return core.Baseline() }
func Permissive() Policy                       { return core.Permissive() }
func PermissiveBR() Policy                     { return core.PermissiveBR() }
func Strict() Policy                           { return core.Strict() }
func StrictBR() Policy                         { return core.StrictBR() }
func LoadRestrict() Policy                     { return core.LoadRestrict() }
func FullProtection() Policy                   { return core.FullProtection() }
func InvisiSpecSpectre() Policy                { return core.InvisiSpecSpectre() }
func InvisiSpecFuture() Policy                 { return core.InvisiSpecFuture() }
func Policies() []Policy                       { return core.All() }
func PolicyByName(name string) (Policy, error) { return core.ByName(name) }

// ---- cores ----

// Params configures the out-of-order core; DefaultParams is the paper's
// Table 3 machine.
type Params = ooo.Params

// DefaultParams returns the Table 3 configuration.
func DefaultParams() Params { return ooo.DefaultParams() }

// Core is a cycle-level out-of-order core.
type Core = ooo.Core

// NewCore builds an OoO core running prog under the given policy, with a
// fresh memory initialized from the program's data segments.
func NewCore(prog *Program, pol Policy, p Params) *Core {
	return ooo.NewFromProgram(prog, pol, p)
}

// InOrder is the blocking in-order baseline core.
type InOrder = inorder.Machine

// InOrderParams configures the in-order core.
type InOrderParams = inorder.Params

// DefaultInOrderParams returns the standard in-order latencies.
func DefaultInOrderParams() InOrderParams { return inorder.DefaultParams() }

// NewInOrder builds an in-order core running prog.
func NewInOrder(prog *Program, p InOrderParams) *InOrder {
	return inorder.NewFromProgram(prog, p)
}

// ---- attacks ----

// AttackKind names one attack proof-of-concept.
type AttackKind = attack.Kind

// The implemented attacks.
const (
	SpectreV1Cache     = attack.SpectreV1Cache
	SpectreV1BTB       = attack.SpectreV1BTB
	SpectreV2          = attack.SpectreV2
	Ret2spec           = attack.Ret2spec
	Meltdown           = attack.Meltdown
	SSB                = attack.SSB
	LazyFP             = attack.LazyFP
	GPRSteering        = attack.GPRSteering
	GPRSteeringSpecOff = attack.GPRSteeringSpecOff
)

// AttackOutcome is the timing series and leak verdict of one attack run.
type AttackOutcome = attack.Outcome

// Attacks lists every implemented attack.
func Attacks() []AttackKind { return attack.All() }

// RunAttack executes one attack PoC under a policy and analyzes the leak.
func RunAttack(kind AttackKind, pol Policy, p Params) (*AttackOutcome, error) {
	return attack.RunCtx(context.Background(), kind, pol, p)
}

// AttackCell is one (attack, policy) matrix entry with the paper-expected
// verdict.
type AttackCell = attack.Cell

// AttackMatrix runs every attack under every configuration — the dynamic
// reproduction of the paper's Table 2 security columns.
func AttackMatrix(p Params) ([]AttackCell, error) {
	return attack.MatrixCtx(context.Background(), p, 0)
}

// ---- workloads & evaluation harness ----

// Benchmark is one named workload generator.
type Benchmark = workload.Spec

// Benchmarks returns the 23 SPEC CPU 2017 proxies.
func Benchmarks() []Benchmark { return workload.SPEC() }

// GenericWorkloads returns the standalone single-kernel workloads.
func GenericWorkloads() []Benchmark { return workload.Generic() }

// BenchmarkByName finds any workload by name.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// RandomProgram generates a seeded terminating program (differential-test
// fodder).
func RandomProgram(seed int64, segments int) *Program { return workload.Random(seed, segments) }

// HarnessConfig controls the sampling methodology.
type HarnessConfig = harness.Config

// DefaultHarnessConfig returns the standard methodology; QuickHarnessConfig
// a reduced one for smoke runs.
func DefaultHarnessConfig() HarnessConfig { return harness.DefaultConfig() }
func QuickHarnessConfig() HarnessConfig   { return harness.Quick() }

// Measurement is one (benchmark, configuration) performance cell.
type Measurement = harness.Measurement

// Sweep is the full evaluation grid.
type Sweep = harness.Sweep

// Measure runs one benchmark under one policy.
func Measure(b Benchmark, pol Policy, cfg HarnessConfig) (*Measurement, error) {
	return harness.MeasureOoOCtx(context.Background(), b, pol, cfg)
}

// MeasureInOrder runs one benchmark on the in-order core.
func MeasureInOrder(b Benchmark, cfg HarnessConfig) (*Measurement, error) {
	return harness.MeasureInOrderCtx(context.Background(), b, cfg)
}

// RunEvaluation measures every benchmark under every policy (and the
// in-order baseline when includeInOrder is set).
func RunEvaluation(bs []Benchmark, pols []Policy, includeInOrder bool, cfg HarnessConfig, progress func(string)) (*Sweep, error) {
	return harness.RunSweepCtx(context.Background(), bs, pols, includeInOrder, cfg, progress)
}

// PipelineTrace collects per-instruction life-cycle records from a Core and
// renders Konata-style text pipeline diagrams (see cmd/ndasim -pipeline).
type PipelineTrace = trace.Collector

// TraceEvent is one instruction's milestone record.
type TraceEvent = ooo.TraceEvent

// Fig5Result is the BTB misprediction-overhead micro-measurement.
type Fig5Result = harness.Fig5Result

// MeasureFig5 measures the BTB misprediction penalty (paper Fig. 5).
func MeasureFig5(p Params) (Fig5Result, error) { return harness.MeasureFig5(p) }

// Fig9eResult is one point of the NDA logic-latency sensitivity study.
type Fig9eResult = harness.Fig9eResult

// RunFig9e measures CPI sensitivity to extra NDA wake-up latency.
func RunFig9e(policy string, delays []int, benchmarks []string, cfg HarnessConfig) ([]Fig9eResult, error) {
	return harness.RunFig9eCtx(context.Background(), policy, delays, benchmarks, cfg)
}

// Renderers for the paper's tables and figures.
func RenderFig5(r Fig5Result) string      { return harness.RenderFig5(r) }
func RenderFig9e(rs []Fig9eResult) string { return harness.RenderFig9e(rs) }
func RenderFig7(s *Sweep) string          { return harness.RenderFig7(s) }
func RenderTable2(s *Sweep) string        { return harness.RenderTable2(s) }
func RenderTable3(p Params) string        { return harness.RenderTable3(p) }
func RenderFig9a(s *Sweep) string         { return harness.RenderFig9a(s) }
func RenderFig9bcd(s *Sweep) string       { return harness.RenderFig9bcd(s) }
