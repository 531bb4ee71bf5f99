// Package diffuzz differentially fuzzes the static gadget analyzer against
// the out-of-order timing core. For every generated program (internal/progen)
// it computes the analyzer's per-policy verdict and then measures the ground
// truth dynamically: under every policy the program has two timing runs with
// different planted secrets, and an attacker-observable channel trace
// (d-cache fills, flushes, InvisiSpec exposures, BTB updates —
// ooo.ChannelEvent) is recorded for each run. Because generated programs are
// architecturally secret-independent by construction (verified here against
// the reference emulator), any trace difference is a transient leak.
//
// Each distinct timing run is simulated once. The policies run in order,
// the baseline first, and each run shadows the rules of every later policy
// (ooo.Core.SetShadows): a later policy that made the run's decision at
// every point would have run it cycle for cycle, and takes its result. A
// secret-B run whose secret-A twin read no planted byte and not the planted
// MSR (ooo.Core.WatchSecrets) is that twin cycle for cycle, and takes its
// result too. A run that errored is never taken over.
//
// A secret vector is part of a program's start state: its loaded data
// image with the vector's bytes planted, at its entry, with the planted
// MSR set. Each worker takes that start once per vector, and every timing
// run resumes the worker's checkpoint.Cores from it, as sweep and attack
// cells do, so no run plants or sets anything.
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
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"nda/internal/checkpoint"
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

// secrets is one planted secret vector: the fill byte of every planted
// region and the value of the privileged MSR.
type secrets struct {
	fill byte
	msr  uint64
}

var (
	secretsA = secrets{secretA, msrSecretA}
	secretsB = secrets{secretB, msrSecretB}
)

// secretSpans are the planted regions, which a run reading none of them
// (nor the planted MSR) computes nothing from.
var secretSpans = []ooo.Span{
	{Lo: progen.SecretBase, Hi: progen.SecretBase + progen.SecretBytes},
	{Lo: progen.StaleBase, Hi: progen.StaleBase + progen.SecretBytes},
	{Lo: progen.KSecretBase, Hi: progen.KSecretBase + progen.SecretBytes},
}

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

// RunSeed generates and differentially tests one seed. Of its timing runs,
// two per policy, it simulates each distinct one once, all on one core
// resumed from the program's start state with the run's secret vector.
func RunSeed(seed int64) *Result {
	t := new(timingCore)
	return t.runSeed(seed, t.run)
}

// timingRun is one timing run's outcome.
type timingRun struct {
	trace []ooo.ChannelEvent // nil if err is set
	san   uint64             // sanitizer violations
	err   error
	// cycles and retired are the simulated cycles and the committed
	// instructions.
	cycles, retired uint64
	// diverged has bit j set if policies[j] was shadowed in the run and
	// decided a point of it differently from the running policy
	// (ooo.Core.Diverged).
	diverged uint64
	// secret is whether the run read a planted byte or the planted MSR.
	secret bool
}

// timingFunc performs one timing run of p resumed from start, p's start
// state with one secret vector planted, under pol with shadows armed,
// appending the channel trace to evs, an empty buffer passed in for its
// capacity. The run's diverged bits stand for shadows, in order.
type timingFunc func(p *progen.Program, start *checkpoint.Checkpoint, pol core.Policy, shadows []core.Rules, evs []ooo.ChannelEvent) timingRun

// policies is core.All built once; each core.All call allocates the gate
// lists, and every program runs under every policy, the baseline first.
// rules holds their compiled rules, which the runs of each policy shadow
// for the policies after it.
var (
	policies = core.All()
	rules    = compileRules(policies)
)

func compileRules(pols []core.Policy) []core.Rules {
	out := make([]core.Rules, len(pols))
	for i, pol := range pols {
		if pol.ExtraBroadcastDelay != policies[0].ExtraBroadcastDelay {
			panic("diffuzz: " + pol.Name + " cannot be shadowed: its broadcast delay differs")
		}
		out[i] = core.Compile(pol.Gates)
	}
	return out
}

// The two kinds of timing run runSeed takes over instead of simulating.
const (
	policyRepeat = iota // a policy's run that repeats an earlier policy's
	secretRepeat        // a secret-B run that repeats its secret-A twin
)

// repeated returns the run made before that the run of policies[i] with
// secret vector s provably repeats, and its kind, or nil if there is none.
// An erroring run is never repeated.
func (t *timingCore) repeated(i, s int) (*timingRun, int) {
	for j := 0; j < i; j++ {
		if r := &t.runs[j][s]; r.err == nil && r.diverged&(1<<i) == 0 {
			return r, policyRepeat
		}
	}
	if r := &t.runs[i][0]; s == 1 && r.err == nil && !r.secret {
		return r, secretRepeat
	}
	return nil, 0
}

// runSeed is RunSeed on t's start image, with the timing runs delegated to
// run. It takes the start once per secret vector, A then B: every policy's
// timing run resumes from it, then the emulator run runs on it and uses it
// up. The results then fold in a fixed order, the architectural check
// first, then each policy's runs in policy order.
func (t *timingCore) runSeed(seed int64, run timingFunc) *Result {
	r := &Result{Seed: seed, PerPolicy: map[string]PolicyResult{}}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(seed))
	}
	p, err := progen.GenWith(t.rng, seed)
	if err != nil {
		r.Failure = err.Error()
		return r
	}
	r.Frags = p.Frags
	an := gadget.Analyze(p.Prog, gadget.Config{})

	// The runs stay in t.runs, their traces in t.bufs, until the program
	// is done: a later run may repeat any of them.
	if t.runs == nil {
		t.runs = make([][2]timingRun, len(policies))
		t.bufs = make([][2][]ooo.ChannelEvent, len(policies))
	}
	var archErr [2]error
	for s, sec := range [2]secrets{secretsA, secretsB} {
		start := t.take(p, sec)
		for i, pol := range policies {
			tr := &t.runs[i][s]
			if same, kind := t.repeated(i, s); same != nil {
				// The trace stays in the buffer of the run repeated.
				*tr = *same
				t.elided[kind]++
				continue
			}
			*tr = run(p, start, pol, rules[i+1:], t.bufs[i][s][:0])
			t.bufs[i][s] = tr.trace
			tr.diverged <<= i + 1 // bit j: policies[j]
		}
		archErr[s] = t.arch[s].run(p, start)
	}

	// Architectural independence: the reference emulator must execute the
	// identical instruction/address stream and reach the same final state
	// under both secret vectors. This validates the generator discipline
	// the soundness argument rests on.
	if archErr[0] != nil || archErr[1] != nil {
		r.Failure = fmt.Sprintf("%s: architectural run failed: %v / %v", p.Name, archErr[0], archErr[1])
		return r
	}
	if d := t.arch[0].diff(&t.arch[1]); d != "" {
		r.Failure = fmt.Sprintf("%s (%s): architecturally secret-dependent: %s",
			p.Name, strings.Join(p.Frags, "+"), d)
		return r
	}

	for i, pol := range policies {
		a, b := t.runs[i][0], t.runs[i][1]
		r.SanViolations += a.san + b.san
		if a.err != nil || b.err != nil {
			r.Failure = fmt.Sprintf("%s under %s: timing run failed: %v / %v", p.Name, pol.Name, a.err, b.err)
			return r
		}
		pr := PolicyResult{
			StaticSafe:  !an.Leaks[pol.Name],
			DynamicLeak: !slices.Equal(a.trace, b.trace),
		}
		r.PerPolicy[pol.Name] = pr
		if a.san+b.san > 0 {
			r.Failure = fmt.Sprintf("%s under %s: %d propagation-sanitizer violations",
				p.Name, pol.Name, a.san+b.san)
			return r
		}
		if pr.StaticSafe && pr.DynamicLeak {
			r.Failure = fmt.Sprintf("SOUNDNESS: %s (%s) certified safe under %s but channel traces differ (%d vs %d events): %s",
				p.Name, strings.Join(p.Frags, "+"), pol.Name, len(a.trace), len(b.trace), traceDiff(a.trace, b.trace))
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

// run records p's run on the reference emulator from start into r, reusing
// r's step log. The run writes to start's memory image, which it uses up.
func (r *archRun) run(p *progen.Program, start *checkpoint.Checkpoint) error {
	m := emu.NewWithMemory(p.Prog, start.Mem)
	m.PC, m.Regs, m.MSR = start.PC, start.Regs, start.MSR
	*r = archRun{steps: r.steps[:0]}
	for !m.Halted {
		if r.retired >= instCap {
			return fmt.Errorf("exceeded %d instructions", instCap)
		}
		if err := m.Step(); err != nil {
			return err
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
	return nil
}

// timingCore is one fuzz worker's state, kept across programs: the
// generator's random source, reseeded for every program; the cores every
// timing run resumes; the start image, taken for every program and secret
// vector; a program's timing runs, two per policy, with their trace
// buffers, and its two architectural step logs; the recorder that appends
// each channel event to evs, the trace of the run in progress; and how many
// runs of each kind (policyRepeat, secretRepeat) were taken over. The
// recorder is bound once, so arming a run's trace hook allocates nothing.
type timingCore struct {
	rng    *rand.Rand // progen's source, reseeded for every program
	cores  checkpoint.Cores
	start  checkpoint.Checkpoint
	runs   [][2]timingRun          // by policy, then secret A, B
	bufs   [][2][]ooo.ChannelEvent // likewise
	arch   [2]archRun              // by secret
	evs    []ooo.ChannelEvent
	record func(ooo.ChannelEvent)
	elided [2]int
}

// emptyImage is the image every start image is emptied by a copy of. No
// worker writes it, so all of them share it.
var emptyImage = mem.New()

// take returns t's start image for p with sec planted: p's loaded data
// with every planted region filled with sec.fill, at p's entry, with the
// privileged MSR holding sec.msr. Emptying the image by a copy of an empty
// one keeps the previous program's page buffers for p's, and the planted
// pages stay mapped in every core that resumes from it.
func (t *timingCore) take(p *progen.Program, sec secrets) *checkpoint.Checkpoint {
	if t.start.Mem == nil {
		t.start.Mem = mem.New()
	}
	t.start.Mem.CopyFrom(emptyImage)
	emu.Load(t.start.Mem, p.Prog)
	plant(t.start.Mem, sec.fill)
	t.start.PC = p.Prog.Entry
	t.start.MSR[isa.MSRSecretKey] = sec.msr
	return &t.start
}

// run is the timingFunc of a fuzz worker: it resumes t's core from start.
func (t *timingCore) run(p *progen.Program, start *checkpoint.Checkpoint, pol core.Policy, shadows []core.Rules, evs []ooo.ChannelEvent) timingRun {
	return t.timing(t.cores.ResumeOoO(start, p.Prog, pol, timingParams()), shadows, evs)
}

// timingParams is the core configuration of every timing run: the paper's
// machine with the propagation sanitizer on.
func timingParams() ooo.Params {
	params := ooo.DefaultParams()
	params.Sanitize = true
	return params
}

// timing arms the shadows and the secret watch of c, a core resumed from
// a start, runs it, and returns the run with its channel trace appended to
// evs.
func (t *timingCore) timing(c *ooo.Core, shadows []core.Rules, evs []ooo.ChannelEvent) timingRun {
	c.SetShadows(shadows)
	c.WatchSecrets(secretSpans, isa.MSRSecretKey)
	// Warm the secret lines so wrong-path dependence chains outrun their
	// guard's DRAM miss; each region is a single cache line. The warming
	// accesses go straight to the hierarchy, before tracing starts.
	c.Hierarchy().Data(progen.SecretBase)
	c.Hierarchy().Data(progen.StaleBase)
	c.Hierarchy().Data(progen.KSecretBase)
	if t.record == nil {
		t.record = func(ev ooo.ChannelEvent) { t.evs = append(t.evs, ev) }
	}
	t.evs = evs
	c.TraceChannel = t.record
	err := c.Run(cycleCap)
	evs, t.evs = t.evs, nil
	if err != nil {
		evs = nil
	}
	return timingRun{
		trace: evs, san: c.SanitizerViolations(), err: err,
		cycles: c.Cycles(), retired: c.Retired(),
		diverged: c.Diverged(), secret: c.ReadSecret(),
	}
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
// Each pool worker keeps one timingCore, indexed by its worker index,
// across all the programs it runs, so the pool builds one core per worker,
// not one per program.
func Fuzz(seeds []int64, workers int) *Summary {
	results := make([]*Result, len(seeds))
	tcs := make([]timingCore, par.Workers(workers))
	// Job errors are recorded per-slot, never returned: one bad seed must
	// not mask the rest of the sweep.
	_ = par.RunCtx(context.Background(), len(seeds), len(tcs), func(w, i int) error {
		t := &tcs[w]
		results[i] = t.runSeed(seeds[i], t.run)
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
	s.Policies = make([]PolicyCensus, len(policies))
	byPolicy := map[string]*PolicyCensus{}
	for i, pol := range policies {
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
