// Package diffuzz differentially fuzzes the static gadget analyzer against
// the out-of-order timing core. For every generated program (internal/progen)
// it computes the analyzer's per-policy verdict and then measures the ground
// truth dynamically: the program runs twice per policy with different planted
// secrets, and an attacker-observable channel trace (d-cache fills, flushes,
// InvisiSpec exposures, BTB updates — ooo.ChannelEvent) is recorded for each
// run. Because generated programs are architecturally secret-independent by
// construction (verified here against the reference emulator), any trace
// difference is a transient leak.
//
// The soundness contract is one-sided: if the analyzer certifies a program
// SAFE under a policy (no unblocked d-cache or BTB gadget) the traces must
// be identical under that policy. A disagreement is a hard failure — either
// the analyzer missed a gadget or the pipeline propagated an unsafe value —
// and the harness reports the seed, fragment kinds, and policy so the case
// replays with a one-line test. The reverse direction (static gadget, no
// dynamic leak) is expected and measured: the analyzer is deliberately
// conservative, and the per-policy precision census quantifies by how much.
//
// Every timing run also carries the pipeline's propagation sanitizer
// (ooo.Params.Sanitize), so the fuzz sweep doubles as a randomized search
// for NDA-invariant violations in the pipeline itself.
package diffuzz

import (
	"fmt"
	"sort"
	"strings"

	"nda/internal/core"
	"nda/internal/emu"
	"nda/internal/gadget"
	"nda/internal/isa"
	"nda/internal/mem"
	"nda/internal/ooo"
	"nda/internal/par"
	"nda/internal/progen"
)

const (
	// secretA/secretB fill the planted secret regions; they differ in
	// every bit the generator's transmit masks (1/3/7) can select.
	secretA = 0xA5
	secretB = 0x5A

	// msrSecretA/msrSecretB are the planted values of the privileged MSR.
	// They are user-space addresses on distinct cache lines, because the
	// chosen-msr fragment dereferences the MSR value directly.
	msrSecretA = 0x200100
	msrSecretB = 0x204180

	// cycleCap bounds one timing run; generated programs finish in a few
	// thousand cycles, so hitting the cap is a generator or pipeline bug.
	cycleCap = 300000
	// instCap bounds one architectural run.
	instCap = 100000

	maxFailures = 10
)

// PolicyResult is the static/dynamic comparison for one program, one policy.
type PolicyResult struct {
	// StaticSafe is the analyzer's certificate: no unblocked gadget on a
	// dynamically observable channel (d-cache, BTB). Advisory
	// branch-channel gadgets are excluded exactly because the dynamic
	// oracle cannot observe a directional-predictor channel.
	StaticSafe bool
	// DynamicLeak is the ground truth: channel traces differed.
	DynamicLeak bool
}

// Result is the outcome for one seed.
type Result struct {
	Seed  int64
	Frags []string
	// PerPolicy maps policy name → comparison.
	PerPolicy map[string]PolicyResult
	// SanViolations sums pipeline-sanitizer findings over all runs.
	SanViolations uint64
	// Failure is non-empty on any hard failure: generation error,
	// architectural secret-dependence, runtime error, sanitizer finding,
	// or a soundness violation (static SAFE, dynamic leak).
	Failure string
}

// RunSeed generates and differentially tests one seed. Its 18 timing runs
// share one core, reset between runs.
func RunSeed(seed int64) *Result {
	t := new(timingCore)
	return t.runSeed(seed, t.run)
}

// timingFunc performs one timing run of p, whose loaded data image is base,
// under pol with the given secrets, appending the channel trace to evs, an
// empty buffer passed in for its capacity. It returns the trace, the
// sanitizer's violation count, and the run's error (with a nil trace).
type timingFunc func(p *progen.Program, base *mem.Memory, pol core.Policy, secret byte, msrSecret uint64, evs []ooo.ChannelEvent) ([]ooo.ChannelEvent, uint64, error)

// runSeed is RunSeed on t's run image, with the timing runs delegated to
// run. The program's data is loaded once, into a base image every run
// restores from.
func (t *timingCore) runSeed(seed int64, run timingFunc) *Result {
	r := &Result{Seed: seed, PerPolicy: map[string]PolicyResult{}}
	p, err := progen.Gen(seed)
	if err != nil {
		r.Failure = err.Error()
		return r
	}
	r.Frags = p.Frags
	base := mem.New()
	emu.Load(base, p.Prog)

	an := gadget.Analyze(p.Prog, gadget.Config{})

	// Architectural independence: the reference emulator must execute the
	// identical instruction/address stream and reach the same final state
	// under both secret vectors. This validates the generator discipline
	// the soundness argument rests on.
	archA, errA := runArch(p, t.restore(base), secretA, msrSecretA)
	archB, errB := runArch(p, t.restore(base), secretB, msrSecretB)
	if errA != nil || errB != nil {
		r.Failure = fmt.Sprintf("%s: architectural run failed: %v / %v", p.Name, errA, errB)
		return r
	}
	if d := archA.diff(archB); d != "" {
		r.Failure = fmt.Sprintf("%s (%s): architecturally secret-dependent: %s",
			p.Name, strings.Join(p.Frags, "+"), d)
		return r
	}

	var trA, trB []ooo.ChannelEvent
	for _, pol := range core.All() {
		var sanA, sanB uint64
		var errA, errB error
		trA, sanA, errA = run(p, base, pol, secretA, msrSecretA, trA[:0])
		trB, sanB, errB = run(p, base, pol, secretB, msrSecretB, trB[:0])
		r.SanViolations += sanA + sanB
		if errA != nil || errB != nil {
			r.Failure = fmt.Sprintf("%s under %s: timing run failed: %v / %v", p.Name, pol.Name, errA, errB)
			return r
		}
		pr := PolicyResult{
			StaticSafe:  !an.Leaks[pol.Name],
			DynamicLeak: !tracesEqual(trA, trB),
		}
		r.PerPolicy[pol.Name] = pr
		if sanA+sanB > 0 {
			r.Failure = fmt.Sprintf("%s under %s: %d propagation-sanitizer violations",
				p.Name, pol.Name, sanA+sanB)
			return r
		}
		if pr.StaticSafe && pr.DynamicLeak {
			r.Failure = fmt.Sprintf("SOUNDNESS: %s (%s) certified safe under %s but channel traces differ (%d vs %d events): %s",
				p.Name, strings.Join(p.Frags, "+"), pol.Name, len(trA), len(trB), traceDiff(trA, trB))
			return r
		}
	}
	return r
}

// archRun captures one reference-emulator execution.
type archRun struct {
	steps   []emu.StepInfo
	regs    [isa.NumGPR]uint64
	retired uint64
	faults  uint64
}

func (a *archRun) diff(b *archRun) string {
	if a.retired != b.retired || a.faults != b.faults {
		return fmt.Sprintf("retired %d/%d faults %d/%d", a.retired, b.retired, a.faults, b.faults)
	}
	if a.regs != b.regs {
		return "final register state differs"
	}
	for i := range a.steps {
		if a.steps[i] != b.steps[i] {
			return fmt.Sprintf("step %d: pc=%#x addr=%#x vs pc=%#x addr=%#x",
				i, a.steps[i].PC, a.steps[i].MemAddr, b.steps[i].PC, b.steps[i].MemAddr)
		}
	}
	return ""
}

// runArch runs p on the reference emulator over img, which holds p's
// loaded data image.
func runArch(p *progen.Program, img *mem.Memory, secret byte, msrSecret uint64) (*archRun, error) {
	m := emu.NewWithMemory(p.Prog, img)
	plant(m.Mem, secret)
	m.MSR[isa.MSRSecretKey] = msrSecret
	r := &archRun{}
	for !m.Halted {
		if r.retired >= instCap {
			return nil, fmt.Errorf("exceeded %d instructions", instCap)
		}
		if err := m.Step(); err != nil {
			return nil, err
		}
		// Values never enter the record: only the instruction/address
		// stream and the final state must be secret-independent.
		info := m.Last
		info.Inst = isa.Inst{}
		r.steps = append(r.steps, info)
		r.retired = m.Retired
	}
	r.regs = m.Regs
	r.faults = m.Faults
	return r, nil
}

// timingCore is one fuzz worker's simulation state, kept across programs:
// a core, built on the first timing run and reset for every later one, and
// a memory image every run (timing or architectural) restores from the
// program's base image.
type timingCore struct {
	c *ooo.Core
	m *mem.Memory
}

// restore returns t's run image holding exactly base's contents.
func (t *timingCore) restore(base *mem.Memory) *mem.Memory {
	if t.m == nil {
		t.m = mem.New()
	}
	t.m.CopyFrom(base)
	return t.m
}

func (t *timingCore) run(p *progen.Program, base *mem.Memory, pol core.Policy, secret byte, msrSecret uint64, evs []ooo.ChannelEvent) ([]ooo.ChannelEvent, uint64, error) {
	m := t.restore(base)
	if t.c == nil {
		t.c = ooo.New(p.Prog, m, pol, timingParams())
	} else {
		t.c.Reset(p.Prog, m, pol)
	}
	return runTiming(t.c, secret, msrSecret, evs)
}

// timingParams is the core configuration of every timing run: the paper's
// machine with the propagation sanitizer on.
func timingParams() ooo.Params {
	params := ooo.DefaultParams()
	params.Sanitize = true
	return params
}

// runTiming plants the secrets in a core that is ready to run (fresh or
// just reset), runs it, and returns its channel trace appended to evs.
func runTiming(c *ooo.Core, secret byte, msrSecret uint64, evs []ooo.ChannelEvent) ([]ooo.ChannelEvent, uint64, error) {
	plant(c.Memory(), secret)
	c.SetMSR(isa.MSRSecretKey, msrSecret)
	// Warm the secret lines so wrong-path dependence chains outrun their
	// guard's DRAM miss; each region is a single cache line. The warming
	// accesses go straight to the hierarchy, before tracing starts.
	c.Hierarchy().Data(progen.SecretBase)
	c.Hierarchy().Data(progen.StaleBase)
	c.Hierarchy().Data(progen.KSecretBase)
	c.TraceChannel = func(ev ooo.ChannelEvent) { evs = append(evs, ev) }
	if err := c.Run(cycleCap); err != nil {
		return nil, c.SanitizerViolations(), err
	}
	return evs, c.SanitizerViolations(), nil
}

// plant writes the secret fill byte over every planted region. The stale
// region holds the same vector: its read byte is architecturally
// overwritten before use, so only a bypassing load can observe it.
func plant(m *mem.Memory, secret byte) {
	var fill [progen.SecretBytes]byte
	for i := range fill {
		fill[i] = secret
	}
	m.StoreBytes(progen.SecretBase, fill[:])
	m.StoreBytes(progen.StaleBase, fill[:])
	m.StoreBytes(progen.KSecretBase, fill[:])
}

func tracesEqual(a, b []ooo.ChannelEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// traceDiff renders the first divergent event pair for failure reports.
func traceDiff(a, b []ooo.ChannelEvent) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("prefix equal through %d events", n)
}

// PolicyCensus aggregates one policy's precision over a sweep.
type PolicyCensus struct {
	Policy        string `json:"policy"`
	StaticSafe    int    `json:"static_safe"`
	DynamicLeak   int    `json:"dynamic_leak"`
	TruePositive  int    `json:"true_positive"`  // static unsafe, dynamic leak
	FalsePositive int    `json:"false_positive"` // static unsafe, dynamic clean
	Unsound       int    `json:"unsound"`        // static safe, dynamic leak — must be zero
}

// Summary aggregates a sweep.
type Summary struct {
	Programs int      `json:"programs"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"` // capped at maxFailures
	// Policies holds one census per policy, in core.All() order.
	Policies []PolicyCensus `json:"policies"`
	// KindTotal counts programs containing each fragment kind;
	// KindLeakOoO counts how many of those leak dynamically under the
	// insecure baseline — the generator-efficacy measure.
	KindTotal   map[string]int `json:"kind_total"`
	KindLeakOoO map[string]int `json:"kind_leak_ooo"`
}

// Seeds expands a base seed into n consecutive seeds.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Fuzz runs the differential harness over the given seeds on the given
// worker count (par.Workers semantics). Results aggregate identically for
// any worker count.
//
// Each worker keeps one timingCore across all the programs it runs: a job
// takes one from the idle channel and hands it back when done, so at most
// one job uses a core at a time and the pool builds one core per worker,
// not one per program.
func Fuzz(seeds []int64, workers int) *Summary {
	results := make([]*Result, len(seeds))
	n := par.Workers(workers)
	idle := make(chan *timingCore, n)
	for i := 0; i < n; i++ {
		idle <- new(timingCore)
	}
	// Job errors are recorded per-slot, never returned: one bad seed must
	// not mask the rest of the sweep.
	_ = par.Run(len(seeds), n, func(i int) error {
		t := <-idle
		results[i] = t.runSeed(seeds[i], t.run)
		idle <- t
		return nil
	})
	return Summarize(results)
}

// Summarize folds per-seed results into a Summary.
func Summarize(results []*Result) *Summary {
	s := &Summary{
		Programs:    len(results),
		KindTotal:   map[string]int{},
		KindLeakOoO: map[string]int{},
	}
	all := core.All()
	s.Policies = make([]PolicyCensus, len(all))
	byPolicy := map[string]*PolicyCensus{}
	for i, pol := range all {
		s.Policies[i] = PolicyCensus{Policy: pol.Name}
		byPolicy[pol.Name] = &s.Policies[i]
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Failure != "" {
			s.Failed++
			if len(s.Failures) < maxFailures {
				s.Failures = append(s.Failures, r.Failure)
			}
			continue
		}
		for name, pr := range r.PerPolicy {
			c := byPolicy[name]
			if c == nil {
				continue
			}
			if pr.StaticSafe {
				c.StaticSafe++
			}
			if pr.DynamicLeak {
				c.DynamicLeak++
			}
			switch {
			case pr.StaticSafe && pr.DynamicLeak:
				c.Unsound++
			case !pr.StaticSafe && pr.DynamicLeak:
				c.TruePositive++
			case !pr.StaticSafe && !pr.DynamicLeak:
				c.FalsePositive++
			}
		}
		seen := map[string]bool{}
		for _, k := range r.Frags {
			if !seen[k] {
				seen[k] = true
				s.KindTotal[k]++
				if r.PerPolicy["OoO"].DynamicLeak {
					s.KindLeakOoO[k]++
				}
			}
		}
	}
	return s
}

// String renders the census as an aligned table for CLI and experiment
// reports.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d programs, %d failed\n", s.Programs, s.Failed)
	fmt.Fprintf(&b, "%-20s %12s %12s %8s %8s %8s\n",
		"policy", "static-safe", "dynamic-leak", "TP", "FP", "UNSOUND")
	for _, c := range s.Policies {
		fmt.Fprintf(&b, "%-20s %12d %12d %8d %8d %8d\n",
			c.Policy, c.StaticSafe, c.DynamicLeak, c.TruePositive, c.FalsePositive, c.Unsound)
	}
	kinds := make([]string, 0, len(s.KindTotal))
	for k := range s.KindTotal {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(&b, "%-20s %12s %12s\n", "fragment kind", "programs", "leak@OoO")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-20s %12d %12d\n", k, s.KindTotal[k], s.KindLeakOoO[k])
	}
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "FAILURE: %s\n", f)
	}
	return b.String()
}
