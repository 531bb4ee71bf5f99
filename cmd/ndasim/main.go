// Command ndasim assembles and runs one program on the simulated cores and
// prints its statistics.
//
// Usage:
//
//	ndasim [flags] program.s        # run an assembly file
//	ndasim [flags] -bench mcf       # run a named benchmark workload
//
// Flags select the propagation policy (-policy, see -list), the core
// (-inorder), and diagnostics (-trace).
package main

import (
	"flag"
	"fmt"
	"os"

	"nda/internal/asm"
	"nda/internal/cliutil"
	"nda/internal/core"
	"nda/internal/inorder"
	"nda/internal/isa"
	"nda/internal/ooo"
	"nda/internal/trace"
	"nda/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "OoO", "propagation policy (see -list)")
		benchName  = flag.String("bench", "", "run a named benchmark instead of a file")
		iters      = flag.Uint64("iters", 50, "benchmark loop iterations (with -bench)")
		inOrder    = flag.Bool("inorder", false, "run on the in-order core instead")
		maxCycles  = flag.Uint64("max-cycles", 500_000_000, "simulation cycle budget")
		traceFlag  = flag.Bool("trace", false, "print every committed instruction")
		disasm     = flag.Bool("disasm", false, "print the program's disassembly and exit")
		pipeline   = flag.Int("pipeline", 0, "render a pipeline diagram of the first N committed instructions")
		regs       = flag.Bool("regs", false, "print non-zero architectural registers at halt")
		list       = flag.Bool("list", false, "list policies and benchmarks, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("policies:")
		for _, p := range core.All() {
			fmt.Printf("  %s\n", p.Name)
		}
		fmt.Println("benchmarks:")
		for _, s := range workload.All() {
			fmt.Printf("  %-12s %-8s %s\n", s.Name, s.Suite, s.Description)
		}
		return
	}

	prog, err := loadProgram(*benchName, *iters, flag.Args())
	if err != nil {
		fatal(err)
	}

	if *disasm {
		fmt.Print(asm.Disassemble(prog))
		return
	}

	if *inOrder {
		m := inorder.NewFromProgram(prog, inorder.DefaultParams())
		if err := m.Run(*maxCycles); err != nil {
			fatal(err)
		}
		s := m.Stats()
		fmt.Printf("in-order: %d instructions, %d cycles, CPI %.3f\n",
			m.Retired(), m.Cycles(), s.CPI())
		return
	}

	pol, err := core.ByName(*policyName)
	if err != nil {
		fatal(err)
	}
	c := ooo.NewFromProgram(prog, pol, ooo.DefaultParams())
	var col *trace.Collector
	if *pipeline > 0 {
		col = &trace.Collector{Limit: *pipeline}
		col.Attach(c)
	}
	if *traceFlag {
		collect := c.TraceRetire
		c.TraceRetire = func(ev ooo.TraceEvent) {
			fmt.Printf("%#08x  %v\n", ev.PC, ev.Inst)
			if collect != nil {
				collect(ev)
			}
		}
	}
	if err := c.Run(*maxCycles); err != nil {
		fatal(err)
	}
	if col != nil {
		fmt.Print(col.Render(120))
		fmt.Printf("mean complete->broadcast deferral: %.1f cycles\n\n", col.BroadcastDeferral())
	}
	if *regs {
		for i := isa.Reg(1); i < isa.NumGPR; i++ {
			if v := c.Reg(i); v != 0 {
				fmt.Printf("  %-4s = %-20d (%#x)\n", regName(i), v, v)
			}
		}
	}
	printStats(c, pol)
}

// regName renders the conventional alias for a register number.
func regName(r isa.Reg) string {
	names := []string{"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
		"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
		"s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
		"t3", "t4", "t5", "t6"}
	return names[r]
}

func loadProgram(bench string, iters uint64, args []string) (*isa.Program, error) {
	if bench != "" {
		spec, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		return spec.Build(iters), nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: ndasim [flags] program.s (or -bench NAME; see -list)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	return asm.Assemble(string(src))
}

func printStats(c *ooo.Core, pol core.Policy) {
	s := c.Stats()
	fmt.Printf("policy %s: %d instructions, %d cycles\n", pol.Name, c.Retired(), c.Cycles())
	fmt.Printf("  CPI %.3f (IPC %.3f)\n", s.CPI(), s.IPC())
	fmt.Printf("  cycles: %.1f%% commit, %.1f%% memory stall, %.1f%% backend stall, %.1f%% frontend stall\n",
		pct(s.CommitCycles, s.Cycles), pct(s.MemStallCycles, s.Cycles),
		pct(s.BackendStalls, s.Cycles), pct(s.FrontendStalls, s.Cycles))
	fmt.Printf("  MLP %.2f, ILP %.2f, dispatch->issue %.1f cycles\n", s.MLP(), s.ILP(), s.DispatchToIssue())
	fmt.Printf("  branches: %d resolved, %d mispredicted (%.1f%%), %d squashes, %d squashed instructions\n",
		s.BranchesResolved, s.Mispredicts, 100*s.MispredictRate(), s.Squashes, s.SquashedInsts)
	fmt.Printf("  memory: %d forwards, %d replays, %d bypassed loads, %d order violations\n",
		s.LoadForwards, s.LoadReplays, s.BypassedLoads, s.OrderViolations)
	if s.DeferredBroadcasts > 0 {
		fmt.Printf("  NDA: %d deferred broadcasts, %.1f cycles mean deferral\n",
			s.DeferredBroadcasts, float64(s.DeferralCycles)/float64(s.DeferredBroadcasts))
	}
	h := c.Hierarchy()
	fmt.Printf("  caches: L1I %.1f%% miss, L1D %.1f%% miss, L2 %.1f%% miss\n",
		100*h.L1I.Stats().MissRate(), 100*h.L1D.Stats().MissRate(), 100*h.L2.Stats().MissRate())
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func fatal(err error) { cliutil.Check("ndasim", err) }
