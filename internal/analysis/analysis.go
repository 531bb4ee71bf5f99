package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Pass is one ndavet pass: a row of the pass table.
type Pass struct {
	Name  string
	Doc   string   // the one-line description ndavet -list-passes prints
	Kinds []string // the finding kinds an //ndavet:allow may pin (<pass>:<kind>)

	graph bool // walks the shared call graph
	run   func(in *passInput) []Finding
}

// passInput is what RunAll hands every pass.
type passInput struct {
	m        *Module
	contract []Rule
	idx      map[string]*Rule
	g        *CallGraph // nil unless a selected pass walks it
	roster   []string
}

// Passes is the pass table, in census order.
var Passes = []Pass{
	{Name: "alloclint", Doc: "//ndavet:hotpath functions must not reach an allocating operation (interprocedural)",
		Kinds: []string{"call", "op", "roster"}, graph: true,
		run: func(in *passInput) []Finding { return runAlloclint(in.m, in.g, in.roster) }},
	{Name: "ctxlint", Doc: "blocking work reachable from a handler entry point must see a cancellation signal (interprocedural)",
		Kinds: []string{"noctx"}, graph: true,
		run: func(in *passInput) []Finding { return runCtxlint(in.m, in.idx, in.g) }},
	{Name: "deadlint", Doc: "every function must be reached from a main, init, var initializer, exported API or caller module (interprocedural)",
		Kinds: []string{"unreached"}, graph: true,
		run: func(in *passInput) []Finding { return runDeadlint(in.m, in.g) }},
	{Name: "detlint", Doc: "no wall-clock reads, global randomness, or map-iteration-ordered output",
		Kinds: []string{"maporder", "rand", "wallclock"},
		run:   func(in *passInput) []Finding { return runDetlint(in.m) }},
	{Name: "errlint", Doc: "no silently dropped error returns in the service layer",
		Kinds: []string{"drop"},
		run:   func(in *passInput) []Finding { return runErrlint(in.m, in.idx) }},
	{Name: "globlint", Doc: "no mutable package-level state in deterministic packages",
		Kinds: []string{"addr", "write"},
		run:   func(in *passInput) []Finding { return runGloblint(in.m, in.idx) }},
	{Name: "layerlint", Doc: "imports must follow the declared layer contract",
		Kinds: []string{"contract", "import"},
		run:   func(in *passInput) []Finding { return runLayerlint(in.m, in.contract, in.idx) }},
	{Name: "leaklint", Doc: "every go statement needs a visible termination path (interprocedural)",
		Kinds: []string{"dynamic", "leak"}, graph: true,
		run: func(in *passInput) []Finding { return runLeaklint(in.m, in.idx, in.g) }},
	{Name: "locklint", Doc: "no blocking operations — lexical or transitive — under a held mutex",
		Kinds: []string{"lexical", "transitive"}, graph: true,
		run: func(in *passInput) []Finding { return runLocklint(in.m, in.idx, in.g) }},
}

// PassNames returns the pass names in census order.
func PassNames() []string {
	names := make([]string, len(Passes))
	for i, p := range Passes {
		names[i] = p.Name
	}
	return names
}

// passByName returns the named pass, or nil.
func passByName(name string) *Pass {
	for i := range Passes {
		if Passes[i].Name == name {
			return &Passes[i]
		}
	}
	return nil
}

// Config selects what a run checks.
type Config struct {
	// Contract is the layer contract to enforce; nil means DefaultContract.
	Contract []Rule
	// Passes restricts the run to a subset of PassNames; nil means all.
	Passes []string
	// HotPathRoster lists function node names that must carry the
	// //ndavet:hotpath annotation (alloclint's tamper check). nil means
	// DefaultHotPathRoster when analyzing this repo's own module, and an
	// empty roster for any other module.
	HotPathRoster []string
}

// RunAll executes the configured passes over a loaded module and returns
// the combined report: every finding (allowed ones marked), sorted, with
// the per-pass census. The error return is for configuration problems
// (unknown pass, duplicate contract entries), not for findings.
func RunAll(m *Module, cfg Config) (*Report, error) {
	contract := cfg.Contract
	if contract == nil {
		contract = DefaultContract
	}
	idx, err := contractIndex(contract)
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.Passes {
		if passByName(n) == nil {
			return nil, fmt.Errorf("unknown pass %q (have %s)", n, strings.Join(PassNames(), "|"))
		}
	}
	run := func(pass string) bool { return cfg.Passes == nil || slices.Contains(cfg.Passes, pass) }

	// The interprocedural passes share one call graph (and its dataflow
	// summaries), built by the first of them to run.
	in := &passInput{m: m, contract: contract, idx: idx, roster: cfg.HotPathRoster}
	var findings []Finding
	for _, p := range Passes {
		if !run(p.Name) {
			continue
		}
		if p.graph && in.g == nil {
			in.g = BuildCallGraph(m)
		}
		findings = append(findings, p.run(in)...)
	}

	entries, malformed := collectAllows(m)
	findings = append(findings, malformed...)
	// Annotations for passes not selected this run are neither applied nor
	// reported unused — a -pass subset must not invent complaints about
	// the other passes' exceptions.
	entries = slices.DeleteFunc(entries, func(e *allowEntry) bool { return !run(e.pass) })
	findings = applyAllows(findings, entries)
	return NewReport("ndavet", findings), nil
}

// classOf returns the contract class for a package path, or "" when the
// package is not in the contract (layerlint reports that separately).
func classOf(idx map[string]*Rule, path string) Class {
	if r := idx[path]; r != nil {
		return r.Class
	}
	return ""
}

// --- shared AST/type helpers used by the passes ---

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves a call's target object. For method calls recv is the
// receiver expression; for package-qualified or local calls recv is nil.
func calleeOf(info *types.Info, call *ast.CallExpr) (obj types.Object, recv ast.Expr) {
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn], nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj(), fn.X
		}
		return info.Uses[fn.Sel], nil
	}
	return nil, nil
}

// pkgPathOf returns the defining package path of obj, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// rootIdent walks to the base identifier of an lvalue-ish expression:
// x, x.f, x[i], *x, (x), x.f[i].g all root at x. Selector chains whose
// base is a package name root at the selected identifier instead
// (pkg.Var roots at Var).
func rootIdent(info *types.Info, e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.SelectorExpr:
			if id, ok := unparen(v.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return v.Sel
				}
			}
			e = v.X
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether obj is a package-scope variable.
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// eachFuncBody invokes fn once per function or method body and once per
// function literal in the package, so analyses that must not leak across
// function boundaries get exactly one call per body.
func eachFuncBody(p *Pkg, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Name.Name, d.Body)
				}
			case *ast.FuncLit:
				fn("func literal", d.Body)
			}
			return true
		})
	}
}

// walkSkipFuncLit walks the statements under n in source order, not
// descending into nested function literals (each gets its own analysis).
// The literal node itself is still visited, so callers can note that a
// closure exists without seeing inside it.
func walkSkipFuncLit(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			visit(c)
			return false
		}
		return visit(c)
	})
}
