package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runDeadlint reports every declared function and method no root reaches.
// Reached code, function literals inside it included, reaches a function
// by calling or referencing it (a method value, a method expression such
// as (*Manager).measure in a var, a func value), and, by class-hierarchy
// analysis, every module method implementing an interface method it
// names. The roots:
//
//   - every main and init function, examples included;
//   - every package-level var initializer;
//   - the library surface: the exported functions of each importable
//     package outside internal/ (here only the root package nda) and the
//     exported methods of each type it declares or aliases, so nda.Core =
//     ooo.Core exposes ooo.Core's;
//   - whatever Module.Callers reference (bench/: its own module, but this
//     repository's benchmark, so a caller);
//   - exported methods implementing error or an exported interface of an
//     imported standard-library package, which the standard library calls
//     where no module call site shows (String, MarshalJSON, Import).
//
// Tests are not roots. A function only tests reach is deleted with its
// tests or moved into a _test.go file; a reference implementation tests
// check a fast path against stays under a reasoned //ndavet:allow.
func runDeadlint(m *Module, g *CallGraph) []Finding {
	reached := map[*FuncNode]bool{}
	var queue []*FuncNode
	reach := func(n *FuncNode) {
		if n != nil && !reached[n] {
			reached[n] = true
			queue = append(queue, n)
		}
	}
	// reachFunc reaches a referenced function's node, or every implementer
	// of a referenced interface method.
	reachFunc := func(fn *types.Func) {
		fn = fn.Origin()
		reach(g.byObj[fn])
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			for _, n := range g.implementers(fn) {
				reach(n)
			}
		}
	}
	// refs reaches every function referenced under root, inside function
	// literals too.
	refs := func(p *Pkg, root ast.Node) {
		ast.Inspect(root, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				if fn, ok := p.Info.Uses[id].(*types.Func); ok {
					reachFunc(fn)
				}
			}
			return true
		})
	}

	stdlib := stdlibInterfaces(m)
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue // a literal, walked with the code around it
		}
		name, recv := n.Obj.Name(), n.Obj.Type().(*types.Signature).Recv()
		if recv == nil && (name == "init" || name == "main" && n.Pkg.Types.Name() == "main" ||
			n.Obj.Exported() && isPublic(n.Pkg)) {
			reach(n)
		}
		for _, iface := range stdlib[name] {
			if recv != nil && n.Obj.Exported() && types.Implements(pointerTo(recv.Type()), iface) {
				reach(n)
			}
		}
	}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					refs(p, gd)
				}
			}
		}
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && isPublic(p) {
				ms := types.NewMethodSet(pointerTo(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					if ms.At(i).Obj().Exported() {
						reachFunc(ms.At(i).Obj().(*types.Func))
					}
				}
			}
		}
	}
	for _, p := range m.Callers {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				reachFunc(fn)
			}
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		refs(n.Pkg, n.Body)
	}

	var out []Finding
	for _, n := range g.Nodes {
		if n.Decl != nil && !reached[n] {
			out = append(out, m.kfinding("deadlint", "unreached", n.Decl.Name, "nothing reaches "+
				strings.TrimPrefix(n.Name, m.Path+"/")+": no main, init, var initializer, exported API, caller module or standard-library interface calls or references it, and tests are not roots; delete it, or move it into a _test.go file"))
		}
	}
	return out
}

// isPublic reports whether p is part of the module's library surface:
// importable (not a main package) and outside every internal/ tree.
func isPublic(p *Pkg) bool {
	return p.Types.Name() != "main" && !strings.Contains("/"+p.Path+"/", "/internal/")
}

// pointerTo returns *t, or t when it already is a pointer, so a method
// set taken from it holds the value and the pointer methods.
func pointerTo(t types.Type) types.Type {
	t = types.Unalias(t)
	if _, ok := t.(*types.Pointer); ok {
		return t
	}
	return types.NewPointer(t)
}

// stdlibInterfaces indexes by method name error and the exported
// interfaces of every standard-library package a module package imports.
func stdlibInterfaces(m *Module) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	for _, p := range m.Pkgs {
		for _, imp := range p.Types.Imports() {
			if !seen[imp] && m.ByPath[imp.Path()] == nil {
				seen[imp] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						add(tn.Type())
					}
				}
			}
		}
	}
	return out
}
