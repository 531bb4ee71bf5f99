package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file is the interprocedural dataflow layer: per-function facts
// scanned from each body, then transitive summaries folded bottom-up over
// the SCC-condensed call graph. Passes consume the summaries:
//
//   - locklint v2 asks "can this call block, transitively?"
//   - ctxlint asks "is a blocking operation reachable that sits in a
//     function with no cancellation signal in scope?"
//   - leaklint asks "can this goroutine run forever, and does it see a
//     termination signal?"
//   - alloclint does its own reachability walk over the graph and uses
//     the per-body allocation-operation facts directly.
//
// Recursion is handled by iterating each SCC to a fixpoint (the facts are
// monotone booleans and first-witness records, so this converges in at
// most a handful of rounds); dynamic dispatch contributes the call site's
// enumerated candidates (see callgraph.go for the soundness story).

// opWitness is one operation of interest found lexically in a body.
type opWitness struct {
	node ast.Node
	desc string // human description, e.g. "channel send", "disk I/O (os.ReadFile)"
}

// xWitness is a transitive witness: the ultimate operation plus the call
// chain (node names, from the summarized function exclusive to the
// witness's owner inclusive; empty means the op is in the own body).
type xWitness struct {
	pos  token.Pos
	desc string
	via  []string
}

// describe renders "desc" or "desc in callee (via a -> b)" for findings.
func (w *xWitness) describe(m *Module) string {
	if len(w.via) == 0 {
		return w.desc
	}
	file, line, _ := m.Rel(w.pos)
	return w.desc + " at " + file + ":" + strconv.Itoa(line) + " (via " + chainString(m, w.via[0], w.via[1:]) + ")"
}

// summary is the transitive dataflow summary of one function node.
type summary struct {
	// blocks is set when some execution of the function may block
	// indefinitely (own operation or transitively through a callee).
	blocks *xWitness
	// noCtxBlock is set when a blocking operation is (transitively)
	// reachable inside a function that has no cancellation signal — no
	// context, channel, or *http.Request value in scope. This is the
	// ctxlint witness.
	noCtxBlock *xWitness
	// loops is set when the function may loop without bound: a for-loop
	// with no range clause and no signal operation in its body, own or
	// transitive.
	loops *xWitness
	// hasCtx reports a cancellation signal in scope: a parameter,
	// receiver field, captured variable, or any touched expression of
	// type context.Context, a channel type, or *net/http.Request.
	hasCtx bool
	// wgDone reports a (*sync.WaitGroup).Done call in the own body — the
	// goroutine-is-joined marker leaklint accepts.
	wgDone bool
	// allocOps lists the own-body allocation operations in source order;
	// alloclint expands these over reachability itself.
	allocOps []opWitness
	// blockOps lists the own-body blocking operations in source order
	// (shared with locklint's lexical critical-section scan).
	blockOps []opWitness
}

// computeSummaries scans every body, then folds summaries bottom-up in
// SCC order, iterating mutually recursive components to a fixpoint.
func (g *CallGraph) computeSummaries() {
	for _, n := range g.Nodes {
		n.summary = scanBody(n)
	}
	// Group nodes by SCC, in condensation order (callees first).
	bySCC := make([][]*FuncNode, g.sccCount)
	for _, n := range g.Nodes {
		bySCC[n.scc] = append(bySCC[n.scc], n)
	}
	for _, group := range bySCC {
		for changed, rounds := true, 0; changed && rounds < len(group)+1; rounds++ {
			changed = false
			for _, n := range group {
				if g.foldCallees(n) {
					changed = true
				}
			}
		}
	}
}

// foldCallees merges callee summaries into n's and reports whether
// anything changed. Witnesses prefer the earliest call site; the merge is
// deterministic because call sites are in source order and candidate
// lists are name-sorted.
func (g *CallGraph) foldCallees(n *FuncNode) bool {
	s := n.summary
	changed := false
	inherit := func(dst **xWitness, from *FuncNode, w *xWitness) {
		if *dst != nil || w == nil {
			return
		}
		via := make([]string, 0, len(w.via)+1)
		via = append(via, from.Name)
		via = append(via, w.via...)
		*dst = &xWitness{pos: w.pos, desc: w.desc, via: via}
		changed = true
	}
	for _, cs := range n.Calls {
		for _, t := range cs.Targets() {
			if t.summary == nil {
				continue
			}
			inherit(&s.blocks, t, t.summary.blocks)
			inherit(&s.noCtxBlock, t, t.summary.noCtxBlock)
			inherit(&s.loops, t, t.summary.loops)
		}
	}
	return changed
}

// scanBody computes the non-transitive facts of one node.
func scanBody(n *FuncNode) *summary {
	s := &summary{}
	p := n.Pkg
	s.hasCtx = signatureHasSignal(n)

	// Ops and signal references, lexically in this body only.
	blockOps := blockingOpsIn(p, n.Body)
	s.blockOps = blockOps
	walkSkipFuncLit(n.Body, func(c ast.Node) bool {
		switch e := c.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if !s.hasCtx && isSignalType(p.Info.TypeOf(c.(ast.Expr))) {
				s.hasCtx = true
			}
			_ = e
		case *ast.CallExpr:
			if isWgDone(p.Info, e) {
				s.wgDone = true
			}
		}
		return true
	})
	s.allocOps = allocOpsIn(n)

	if first := firstOp(blockOps); first != nil {
		s.blocks = &xWitness{pos: first.node.Pos(), desc: first.desc}
	}
	if !s.hasCtx && s.blocks != nil {
		s.noCtxBlock = s.blocks
	}
	if lw := unboundedLoopIn(p, n.Body); lw != nil {
		s.loops = &xWitness{pos: lw.node.Pos(), desc: lw.desc}
	}
	return s
}

func firstOp(ops []opWitness) *opWitness {
	if len(ops) == 0 {
		return nil
	}
	return &ops[0]
}

// signatureHasSignal checks the declared inputs — receiver and parameters
// — for a cancellation-capable type.
func signatureHasSignal(n *FuncNode) bool {
	var sig *types.Signature
	if n.Obj != nil {
		sig, _ = n.Obj.Type().(*types.Signature)
	} else if n.Lit != nil {
		if t := n.Pkg.Info.TypeOf(n.Lit); t != nil {
			sig, _ = t.(*types.Signature)
		}
	}
	if sig == nil {
		return false
	}
	if r := sig.Recv(); r != nil && receiverHasSignalField(r.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isSignalType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// receiverHasSignalField reports whether the receiver's struct type (one
// pointer deref) directly carries a context or channel field — the stored
// cancellation idiom (ooo.Core.Cancel, serve.Manager.baseCtx).
func receiverHasSignalField(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSignalType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isSignalType recognizes cancellation-capable values: context.Context,
// any channel, or *net/http.Request (which carries r.Context()).
func isSignalType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "context.Context", "net/http.Request":
		return true
	}
	return false
}

// isWgDone matches (*sync.WaitGroup).Done.
func isWgDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	obj := selection.Obj()
	return obj != nil && obj.Name() == "Done" && pkgPathOf(obj) == "sync"
}

// blockingOpsIn scans one body (literals excluded) for operations that
// can block indefinitely, in source order. Channel operations guarded by
// a select's comm clauses are not reported on their own: with a default
// the select is non-blocking, without one the select itself is the op.
func blockingOpsIn(p *Pkg, body ast.Node) []opWitness {
	var out []opWitness
	type span struct{ lo, hi token.Pos }
	var commGuards []span
	walkSkipFuncLit(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				out = append(out, opWitness{s, "select with no default case"})
			}
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					commGuards = append(commGuards, span{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
		case *ast.SendStmt:
			out = append(out, opWitness{s, "channel send"})
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				out = append(out, opWitness{s, "channel receive"})
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					out = append(out, opWitness{s, "range over channel"})
				}
			}
		case *ast.CallExpr:
			if desc := blockingCall(p.Info, s); desc != "" {
				out = append(out, opWitness{s, desc})
			}
		}
		return true
	})
	kept := out[:0]
	for _, op := range out {
		guarded := false
		for _, sp := range commGuards {
			if op.node.Pos() >= sp.lo && op.node.End() <= sp.hi {
				guarded = true
				break
			}
		}
		if !guarded {
			kept = append(kept, op)
		}
	}
	return kept
}

// unboundedLoopIn finds a for-loop that can spin forever with no signal
// operation in its body: no range clause (or a range over a channel-free
// iterable is bounded), and no select, channel op, or Wait/Acquire call
// anywhere inside. Such a loop has no visible termination or park point.
func unboundedLoopIn(p *Pkg, body ast.Node) *opWitness {
	var found *opWitness
	walkSkipFuncLit(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		f, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		// A classic bounded loop: for init; cond; post — assume the post
		// clause advances toward the condition.
		if f.Cond != nil && f.Post != nil {
			return true
		}
		if f.Cond == nil && (f.Init != nil || f.Post != nil) {
			return true
		}
		// for {} or for cond {}: look for a signal in the body.
		signal := false
		walkSkipFuncLit(f.Body, func(c ast.Node) bool {
			switch s := c.(type) {
			case *ast.SelectStmt, *ast.SendStmt, *ast.RangeStmt:
				signal = true
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					signal = true
				}
			case *ast.CallExpr:
				if desc := blockingCall(p.Info, s); desc != "" && !strings.Contains(desc, "time.Sleep") {
					signal = true
				}
			}
			return !signal
		})
		if !signal {
			kind := "for-loop with no bound"
			if f.Cond == nil {
				kind = "unconditional for-loop"
			}
			found = &opWitness{f, kind + " and no channel/select/wait operation inside"}
		}
		return true
	})
	return found
}

// allocOpsIn scans one body for operations that allocate: make/new,
// append, reference-type and escaping composite literals, capturing
// closures, map writes, non-constant string concatenation, string/slice
// conversions, conversions to interface types, and go statements.
func allocOpsIn(n *FuncNode) []opWitness {
	p := n.Pkg
	var out []opWitness
	add := func(node ast.Node, desc string) { out = append(out, opWitness{node, desc}) }
	walkSkipFuncLit(n.Body, func(c ast.Node) bool {
		switch e := c.(type) {
		case *ast.GoStmt:
			add(e, "go statement allocates a goroutine")
		case *ast.FuncLit:
			if capturesOuter(n, e) {
				add(e, "closure captures enclosing variables and allocates")
			}
			return true
		case *ast.CompositeLit:
			switch p.Info.TypeOf(e).Underlying().(type) {
			case *types.Slice:
				add(e, "slice literal allocates")
			case *types.Map:
				add(e, "map literal allocates")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := unparen(e.X).(*ast.CompositeLit); ok {
					add(e, "&composite-literal allocates")
				}
			}
		case *ast.CallExpr:
			fun := unparen(e.Fun)
			if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
				if d := conversionAlloc(p.Info, e); d != "" {
					add(e, d)
				}
				return true
			}
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						add(e, "make allocates")
					case "new":
						add(e, "new allocates")
					case "append":
						add(e, "append may grow its backing array")
					}
					return true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix, ok := unparen(lhs).(*ast.IndexExpr); ok {
					if t := p.Info.TypeOf(ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							add(e, "map write may grow the table")
						}
					}
				}
			}
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(p.Info.TypeOf(e.Lhs[0])) {
				add(e, "string concatenation allocates")
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(p.Info.TypeOf(e)) {
				if tv, ok := p.Info.Types[e]; !ok || tv.Value == nil {
					add(e, "string concatenation allocates")
				}
			}
		}
		return true
	})
	return out
}

// conversionAlloc classifies allocating conversions: string <-> byte/rune
// slices and boxing a non-interface value into an interface.
func conversionAlloc(info *types.Info, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	dst := info.TypeOf(call)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return ""
	}
	dstU, srcU := dst.Underlying(), src.Underlying()
	if isStringType(dst) {
		if _, ok := srcU.(*types.Slice); ok {
			return "conversion to string copies and allocates"
		}
	}
	if _, ok := dstU.(*types.Slice); ok && isStringType(src) {
		return "conversion from string copies and allocates"
	}
	if _, ok := dstU.(*types.Interface); ok {
		if _, srcIface := srcU.(*types.Interface); !srcIface {
			if b, ok := srcU.(*types.Basic); !ok || b.Kind() != types.UntypedNil {
				return "conversion to interface may box and allocate"
			}
		}
	}
	return ""
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturesOuter reports whether a literal nested in n's body references
// variables declared in an enclosing function (which forces a heap-
// allocated closure).
func capturesOuter(n *FuncNode, lit *ast.FuncLit) bool {
	p := n.Pkg
	captured := false
	ast.Inspect(lit.Body, func(c ast.Node) bool {
		if captured {
			return false
		}
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || isPackageLevelVar(v) || v.IsField() {
			return true
		}
		// Declared before the literal but inside some function: captured.
		if v.Pos() < lit.Pos() && v.Parent() != nil && v.Parent() != p.Types.Scope() {
			captured = true
		}
		return true
	})
	return captured
}
