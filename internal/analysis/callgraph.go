package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program call graph the interprocedural
// passes (alloclint, leaklint, ctxlint, locklint v2) walk. One node per
// function body — declared functions, methods, and function literals all
// get their own node — and one edge per call site, resolved as precisely
// as go/types allows:
//
//   - Direct calls to module functions and methods are static edges.
//   - Interface method calls resolve by class-hierarchy analysis: an edge
//     to every module type that implements the interface, plus the
//     Unknown mark, because an exported interface can always gain
//     implementers outside the module.
//   - Calls through func values (parameters, fields, locals, method
//     values) resolve to every address-taken module function with an
//     identical signature, plus the Unknown mark.
//   - Calls to functions outside the module keep the callee object so the
//     passes can classify the stdlib surface (blocking, allocating).
//
// The Unknown mark is the soundness valve: a pass that must be
// conservative (alloclint on a pinned hot path) treats an Unknown edge as
// worst-case; precision-oriented passes (leaklint, ctxlint) restrict
// themselves to the enumerated candidates and say so in their docs.

// FuncNode is one function body in the call graph.
type FuncNode struct {
	Name string        // stable display name, e.g. "nda/internal/ooo.(*Core).Step"
	Pkg  *Pkg          // defining package
	Decl *ast.FuncDecl // non-nil for declared functions and methods
	Lit  *ast.FuncLit  // non-nil for function literals
	Obj  *types.Func   // declared object; nil for literals
	Body *ast.BlockStmt

	// Calls lists the node's call sites in source order.
	Calls []*CallSite

	// Encl is the enclosing declared function for literals (nil for the
	// rare package-scope literal in a var initializer).
	Encl *FuncNode

	// HotPath records a //ndavet:hotpath annotation on the declaration.
	HotPath bool

	summary *summary // filled by dataflow.go
	scc     int      // SCC index (condensation order: callees before callers)
}

// CallSite is one resolved call expression (including go/defer calls).
type CallSite struct {
	Call  *ast.CallExpr
	Go    bool // spawned via a go statement
	Defer bool

	// Static is the unique callee when the call is direct; nil otherwise.
	Static *FuncNode
	// Candidates enumerates the possible module-internal callees of a
	// dynamic call (interface dispatch, func value), sorted by name.
	Candidates []*FuncNode
	// Unknown marks calls that may target code the module cannot see:
	// every dynamic call, plus direct calls to unexported-body externals.
	Unknown bool
	// External is the callee object when it resolves outside the module
	// (stdlib); nil for module callees and unresolvable dynamics.
	External *types.Func
	// Desc says what kind of call site this is, for findings: "call to
	// os.ReadFile", "interface call net/http.RoundTripper.RoundTrip",
	// "call through func value job".
	Desc string
}

// Targets returns every module-internal callee the site may reach.
func (cs *CallSite) Targets() []*FuncNode {
	if cs.Static != nil {
		return []*FuncNode{cs.Static}
	}
	return cs.Candidates
}

// CallGraph is the module-wide graph plus its resolution indexes.
type CallGraph struct {
	Mod   *Module
	Nodes []*FuncNode // deterministic: source position order

	byObj  map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	byName map[string]*FuncNode

	// taken lists address-taken functions (referenced outside call
	// position) — the candidate set for func-value dispatch.
	taken []*FuncNode
	// impls memoizes implementers per interface method.
	impls map[*types.Func][]*FuncNode

	sccCount int
}

// NodeByName looks a node up by its display name.
func (g *CallGraph) NodeByName(name string) *FuncNode { return g.byName[name] }

// nodeName renders the stable display name for a declared function.
func nodeName(p *Pkg, decl *ast.FuncDecl, obj *types.Func) string {
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			s := types.TypeString(recv, func(tp *types.Package) string { return "" })
			// Strip generic type arguments so the name stays readable:
			// (*Ring[T]).Push names as (*Ring).Push.
			if i := strings.IndexByte(s, '['); i >= 0 {
				j := strings.LastIndexByte(s, ']')
				if j > i {
					s = s[:i] + s[j+1:]
				}
			}
			return p.Path + ".(" + s + ")." + obj.Name()
		}
	}
	return p.Path + "." + decl.Name.Name
}

// litName renders a literal's name from its enclosing function and
// position: "<encl>.func@file:line".
func litName(m *Module, encl string, lit *ast.FuncLit) string {
	file, line, _ := m.Rel(lit.Pos())
	return fmt.Sprintf("%s.func@%s:%d", encl, file, line)
}

// BuildCallGraph constructs the call graph for a loaded module. The
// result is deterministic: node order follows source position, candidate
// lists are name-sorted.
func BuildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		Mod:    m,
		byObj:  map[*types.Func]*FuncNode{},
		byLit:  map[*ast.FuncLit]*FuncNode{},
		byName: map[string]*FuncNode{},
		impls:  map[*types.Func][]*FuncNode{},
	}
	g.createNodes()
	g.resolveEdges()
	g.condense()
	g.computeSummaries()
	return g
}

// createNodes adds a node for every function body in the module, and
// records which declared functions carry the //ndavet:hotpath annotation.
func (g *CallGraph) createNodes() {
	for _, p := range g.Mod.Pkgs {
		for _, f := range p.Files {
			hot := hotPathMarkers(g.Mod.Fset, f)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				n := &FuncNode{
					Name: nodeName(p, fd, obj),
					Pkg:  p, Decl: fd, Obj: obj, Body: fd.Body,
					HotPath: isHotPath(g.Mod.Fset, fd, hot),
				}
				g.addNode(n)
				if obj != nil {
					g.byObj[obj.Origin()] = n
				}
				// Literals nested in this declaration.
				g.createLitNodes(p, n, fd.Body)
			}
			// Package-scope literals (var initializers).
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					ast.Inspect(gd, func(c ast.Node) bool {
						if lit, ok := c.(*ast.FuncLit); ok {
							if g.byLit[lit] == nil {
								ln := &FuncNode{
									Name: litName(g.Mod, p.Path+".init", lit),
									Pkg:  p, Lit: lit, Body: lit.Body,
								}
								g.addNode(ln)
								g.byLit[lit] = ln
								g.createLitNodes(p, ln, lit.Body)
							}
							return false
						}
						return true
					})
				}
			}
		}
	}
}

// createLitNodes adds a node for every literal directly nested in body
// (each literal then recurses for its own nested literals).
func (g *CallGraph) createLitNodes(p *Pkg, encl *FuncNode, body *ast.BlockStmt) {
	ast.Inspect(body, func(c ast.Node) bool {
		lit, ok := c.(*ast.FuncLit)
		if !ok {
			return true
		}
		ln := &FuncNode{
			Name: litName(g.Mod, encl.Name, lit),
			Pkg:  p, Lit: lit, Body: lit.Body, Encl: encl,
		}
		g.addNode(ln)
		g.byLit[lit] = ln
		g.createLitNodes(p, ln, lit.Body)
		return false
	})
}

func (g *CallGraph) addNode(n *FuncNode) {
	g.Nodes = append(g.Nodes, n)
	g.byName[n.Name] = n
}

// hotPathMarkers collects the source lines of //ndavet:hotpath comments
// in a file. A marker annotates the function declaration whose doc
// comment contains it, or whose func keyword sits on the next line.
func hotPathMarkers(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "ndavet:hotpath" {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// isHotPath reports whether a declaration carries the hotpath marker:
// any marker line inside the doc comment group, or directly above the
// func keyword.
func isHotPath(fset *token.FileSet, fd *ast.FuncDecl, markers map[int]bool) bool {
	if len(markers) == 0 {
		return false
	}
	if markers[fset.Position(fd.Pos()).Line-1] {
		return true
	}
	if fd.Doc != nil {
		lo := fset.Position(fd.Doc.Pos()).Line
		hi := fset.Position(fd.Doc.End()).Line
		for l := lo; l <= hi; l++ {
			if markers[l] {
				return true
			}
		}
	}
	return false
}

// resolveEdges fills every node's call-site list.
func (g *CallGraph) resolveEdges() {
	g.collectTaken()
	for _, n := range g.Nodes {
		n.Calls = g.resolveBody(n)
	}
}

// collectTaken finds every module function referenced as a value — the
// address-taken set that seeds func-value dispatch. A reference is "in
// call position" only when it is exactly the callee expression.
func (g *CallGraph) collectTaken() {
	seen := map[*FuncNode]bool{}
	for _, p := range g.Mod.Pkgs {
		for _, f := range p.Files {
			callees := map[ast.Expr]bool{}
			selIdents := map[*ast.Ident]bool{}
			ast.Inspect(f, func(c ast.Node) bool {
				switch e := c.(type) {
				case *ast.CallExpr:
					callees[unparen(e.Fun)] = true
				case *ast.SelectorExpr:
					// The Sel ident is owned by its selector: a method
					// mention is a value only via the SelectorExpr case
					// below, never via the bare ident the walk also visits.
					selIdents[e.Sel] = true
				}
				return true
			})
			ast.Inspect(f, func(c ast.Node) bool {
				switch e := c.(type) {
				case *ast.FuncLit:
					if !callees[ast.Expr(e)] {
						if ln := g.byLit[e]; ln != nil && !seen[ln] {
							seen[ln] = true
							g.taken = append(g.taken, ln)
						}
					}
				case *ast.Ident:
					if callees[ast.Expr(e)] || selIdents[e] {
						return true
					}
					if fn, ok := p.Info.Uses[e].(*types.Func); ok {
						if n := g.byObj[fn.Origin()]; n != nil && !seen[n] {
							seen[n] = true
							g.taken = append(g.taken, n)
						}
					}
				case *ast.SelectorExpr:
					if callees[ast.Expr(e)] {
						return true
					}
					if sel, ok := p.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
						if fn, ok := sel.Obj().(*types.Func); ok {
							if n := g.byObj[fn.Origin()]; n != nil && !seen[n] {
								seen[n] = true
								g.taken = append(g.taken, n)
							}
						}
					}
				}
				return true
			})
		}
	}
	sort.Slice(g.taken, func(i, j int) bool { return g.taken[i].Name < g.taken[j].Name })
}

// resolveBody resolves the call sites lexically inside n's own body
// (nested literals excluded — they have their own nodes). go and defer
// statements claim their call expression so it carries the right flags.
func (g *CallGraph) resolveBody(n *FuncNode) []*CallSite {
	claimed := map[*ast.CallExpr]struct{ goStmt, deferStmt bool }{}
	walkSkipFuncLit(n.Body, func(c ast.Node) bool {
		switch s := c.(type) {
		case *ast.GoStmt:
			claimed[s.Call] = struct{ goStmt, deferStmt bool }{true, false}
		case *ast.DeferStmt:
			claimed[s.Call] = struct{ goStmt, deferStmt bool }{false, true}
		}
		return true
	})
	var out []*CallSite
	walkSkipFuncLit(n.Body, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if cs := g.resolveCall(n.Pkg, call); cs != nil {
				flags := claimed[call]
				cs.Go, cs.Defer = flags.goStmt, flags.deferStmt
				out = append(out, cs)
			}
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Call.Pos() < out[j].Call.Pos() })
	return out
}

// resolveCall classifies one call expression. Returns nil for conversions
// and builtin calls — they are operations, not edges.
func (g *CallGraph) resolveCall(p *Pkg, call *ast.CallExpr) *CallSite {
	fun := unparen(call.Fun)
	// A conversion: T(x).
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return nil
	}
	// A directly invoked literal: static edge to its node.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if ln := g.byLit[lit]; ln != nil {
			return &CallSite{Call: call, Static: ln, Desc: "call to " + ln.Name}
		}
	}
	obj, _ := calleeOf(p.Info, call)
	switch o := obj.(type) {
	case *types.Builtin:
		return nil
	case *types.Func:
		fn := o.Origin()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				return &CallSite{Call: call, Unknown: true, External: fn,
					Desc: "interface call " + externalName(fn), Candidates: g.implementers(fn)}
			}
		}
		if n := g.byObj[fn]; n != nil {
			return &CallSite{Call: call, Static: n, Desc: "call to " + n.Name}
		}
		return &CallSite{Call: call, External: fn, Desc: "call to " + externalName(fn)}
	}
	// Everything else is a call through a func-typed value.
	return g.resolveFuncValueCall(p, call)
}

// externalName renders "pkg.Func" or "pkg.(T).Method" for a non-module
// callee.
func externalName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(tp *types.Package) string { return "" })
		return fn.Pkg().Path() + ".(" + recv + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// implementers returns the module methods an interface method m may
// dispatch to — class-hierarchy analysis: m's counterpart on every module
// type implementing its interface, sorted by name. An interface call site
// is Unknown as well, since external implementers are always possible.
func (g *CallGraph) implementers(m *types.Func) []*FuncNode {
	if out, ok := g.impls[m]; ok {
		return out
	}
	iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, pkg := range g.Mod.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					continue
				}
				if !types.Implements(t, iface) {
					continue
				}
				impl, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
				if fn, ok := impl.(*types.Func); ok {
					if n := g.byObj[fn.Origin()]; n != nil && !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.impls[m] = out
	return out
}

// resolveFuncValueCall matches a call through a func value against the
// address-taken set by identical signature.
func (g *CallGraph) resolveFuncValueCall(p *Pkg, call *ast.CallExpr) *CallSite {
	cs := &CallSite{Call: call, Unknown: true,
		Desc: "call through func value " + types.ExprString(unparen(call.Fun))}
	sig, _ := p.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		if t := p.Info.TypeOf(call.Fun); t != nil {
			sig, _ = t.Underlying().(*types.Signature)
		}
	}
	if sig == nil {
		return cs
	}
	for _, cand := range g.taken {
		var candSig *types.Signature
		if cand.Obj != nil {
			candSig, _ = cand.Obj.Type().(*types.Signature)
			if candSig != nil && candSig.Recv() != nil {
				// A method value's signature drops the receiver.
				candSig = types.NewSignatureType(nil, nil, nil, candSig.Params(), candSig.Results(), candSig.Variadic())
			}
		} else if cand.Lit != nil {
			if t := cand.Pkg.Info.TypeOf(cand.Lit); t != nil {
				candSig, _ = t.(*types.Signature)
			}
		}
		if candSig != nil && funcSigMatches(sig, candSig) {
			cs.Candidates = append(cs.Candidates, cand)
		}
	}
	return cs
}

// funcSigMatches reports whether an address-taken function of type cand
// could flow into a func value of type sig. Exact identity for ordinary
// signatures; when sig mentions type parameters (a call through a
// generic's func-typed parameter), fall back to arity matching — the
// over-approximation keeps the candidate set sound for the passes that
// enumerate it.
func funcSigMatches(sig, cand *types.Signature) bool {
	if types.Identical(types.Type(sig), types.Type(cand)) {
		return true
	}
	if !mentionsTypeParam(sig) {
		return false
	}
	return sig.Params().Len() == cand.Params().Len() &&
		sig.Results().Len() == cand.Results().Len() &&
		sig.Variadic() == cand.Variadic()
}

// mentionsTypeParam reports whether any parameter or result of sig is or
// contains a type parameter (shallow walk over the common containers).
func mentionsTypeParam(sig *types.Signature) bool {
	var any func(t types.Type, depth int) bool
	any = func(t types.Type, depth int) bool {
		if depth > 4 {
			return false
		}
		switch u := t.(type) {
		case *types.TypeParam:
			return true
		case *types.Pointer:
			return any(u.Elem(), depth+1)
		case *types.Slice:
			return any(u.Elem(), depth+1)
		case *types.Array:
			return any(u.Elem(), depth+1)
		case *types.Map:
			return any(u.Key(), depth+1) || any(u.Elem(), depth+1)
		case *types.Chan:
			return any(u.Elem(), depth+1)
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				if any(u.Params().At(i).Type(), depth+1) {
					return true
				}
			}
			for i := 0; i < u.Results().Len(); i++ {
				if any(u.Results().At(i).Type(), depth+1) {
					return true
				}
			}
		}
		return false
	}
	return any(types.Type(sig), 0)
}

// condense numbers the graph's strongly connected components (static
// edges plus dynamic candidates) in dependency-first order: a node's
// callees are always in the same or a lower-numbered SCC.
func (g *CallGraph) condense() {
	callees := func(n *FuncNode) []*FuncNode {
		var out []*FuncNode
		for _, cs := range n.Calls {
			out = append(out, cs.Targets()...)
		}
		return out
	}
	comps := sccs(g.Nodes, callees)
	for i, c := range comps {
		for _, n := range c {
			n.scc = i
		}
	}
	g.sccCount = len(comps)
}

// chainString renders a call chain for a finding message. Module paths
// are shortened by the module-path prefix to keep messages readable.
func chainString(mod *Module, root string, chain []string) string {
	short := make([]string, 0, len(chain)+1)
	for _, s := range append([]string{root}, chain...) {
		short = append(short, strings.TrimPrefix(s, mod.Path+"/"))
	}
	return strings.Join(short, " -> ")
}
