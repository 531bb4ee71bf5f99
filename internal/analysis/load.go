package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Pkg is one typechecked package of the module under analysis.
type Pkg struct {
	Path  string      // full import path, e.g. "nda/internal/ooo"
	Dir   string      // absolute directory
	Files []*ast.File // non-test files, sorted by filename
	Types *types.Package
	Info  *types.Info
	// Internal lists the module-internal imports, sorted; Std the rest.
	Internal []string
	Std      []string

	caller bool // in a module nested in this one's tree
}

// Module is a loaded, fully typechecked module: every non-test package,
// in dependency order (imported packages strictly before importers).
type Module struct {
	Root   string // absolute module root (directory holding go.mod)
	Path   string // module path from go.mod
	Fset   *token.FileSet
	Pkgs   []*Pkg
	ByPath map[string]*Pkg
	// Callers are the packages of the modules nested in this one's tree
	// (bench/), typechecked against it under their directories' import
	// paths. No pass analyzes them; deadlint counts what they use.
	Callers []*Pkg
}

// Rel renders a token position with the file path relative to the module
// root — the stable form findings are reported in.
func (m *Module) Rel(pos token.Pos) (file string, line, col int) {
	p := m.Fset.Position(pos)
	file = p.Filename
	if r, err := filepath.Rel(m.Root, p.Filename); err == nil {
		file = filepath.ToSlash(r)
	}
	return file, p.Line, p.Column
}

// The standard-library importer is shared across Loads: it typechecks
// stdlib packages from source ($GOROOT/src) — the only importer that
// needs no toolchain-generated export data — and caches them per process.
// srcimporter is not safe for concurrent use, so loads serialize on stdMu.
var (
	stdMu   sync.Mutex
	stdFset = token.NewFileSet()
	stdImp  = importer.ForCompiler(stdFset, "source", nil)
)

// moduleImporter resolves module-internal paths from the packages already
// typechecked this load (dependency order guarantees they exist) and
// delegates everything else to the shared stdlib source importer.
type moduleImporter struct {
	modPath string
	done    map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == mi.modPath || strings.HasPrefix(path, mi.modPath+"/") {
		p := mi.done[path]
		if p == nil {
			return nil, fmt.Errorf("internal package %s not yet typechecked (dependency order bug)", path)
		}
		return p, nil
	}
	return stdImp.Import(path)
}

// Load parses and typechecks every non-test package under the module
// containing dir, in dependency order, and returns the typed module.
// Import cycles among module packages and type errors fail the load.
func Load(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	stdMu.Lock()
	defer stdMu.Unlock()

	m := &Module{Root: root, Path: modPath, Fset: stdFset, ByPath: map[string]*Pkg{}}
	if err := m.parseAll(); err != nil {
		return nil, err
	}
	order, err := m.depOrder()
	if err != nil {
		return nil, err
	}
	mi := &moduleImporter{modPath: modPath, done: map[string]*types.Package{}}
	for _, p := range order {
		if err := m.typecheck(p, mi); err != nil {
			return nil, err
		}
		if p.caller {
			m.Callers = append(m.Callers, p)
		} else {
			m.Pkgs = append(m.Pkgs, p)
		}
	}
	return m, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := moduleLine(string(data))
			if path == "" {
				return "", "", fmt.Errorf("%s: no module line", filepath.Join(d, "go.mod"))
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

func moduleLine(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p
			}
			return rest
		}
	}
	return ""
}

// parseAll walks the module tree and parses every non-test .go file,
// grouping files into packages by directory. testdata and hidden
// directories are skipped, matching the go tool's conventions; packages
// in nested modules are marked as callers.
func (m *Module) parseAll() error {
	var nested []string
	return filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Root {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					nested = append(nested, path+string(filepath.Separator))
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return err
		}
		ipath := m.Path
		if rel != "." {
			ipath = m.Path + "/" + filepath.ToSlash(rel)
		}
		p := m.ByPath[ipath]
		if p == nil {
			p = &Pkg{Path: ipath, Dir: dir, caller: slices.ContainsFunc(nested, func(root string) bool {
				return strings.HasPrefix(dir+string(filepath.Separator), root)
			})}
			m.ByPath[ipath] = p
		}
		p.Files = append(p.Files, file)
		return nil
	})
}

// depOrder topologically sorts the packages over their module-internal
// imports and fills each Pkg's Internal/Std import lists. A cycle is an
// error naming every member.
func (m *Module) depOrder() ([]*Pkg, error) {
	for _, p := range m.ByPath {
		seen := map[string]bool{}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil || seen[ip] {
					continue
				}
				seen[ip] = true
				if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
					p.Internal = append(p.Internal, ip)
				} else {
					p.Std = append(p.Std, ip)
				}
			}
		}
		sort.Strings(p.Internal)
		sort.Strings(p.Std)
	}

	paths := make([]string, 0, len(m.ByPath))
	for path := range m.ByPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	imports := func(path string) []string {
		if p := m.ByPath[path]; p != nil {
			return p.Internal
		}
		return nil // unresolvable import; typecheck will report it
	}
	var order []*Pkg
	for _, c := range sccs(paths, imports) {
		if cyclic(c, imports) {
			return nil, fmt.Errorf("import cycle among module packages: %s", strings.Join(c, ", "))
		}
		if p := m.ByPath[c[0]]; p != nil {
			order = append(order, p)
		}
	}
	return order, nil
}

// typecheck runs go/types over one package with full use/def/selection
// info, resolving its module-internal imports from mi.
func (m *Module) typecheck(p *Pkg, mi *moduleImporter) error {
	sort.Slice(p.Files, func(i, j int) bool {
		return m.Fset.Position(p.Files[i].Pos()).Filename < m.Fset.Position(p.Files[j].Pos()).Filename
	})
	var errs []string
	conf := types.Config{
		Importer: mi,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err.Error())
			}
		},
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, err := conf.Check(p.Path, m.Fset, p.Files, p.Info)
	if len(errs) > 0 {
		return fmt.Errorf("typecheck %s: %s", p.Path, strings.Join(errs, "; "))
	}
	if err != nil {
		return fmt.Errorf("typecheck %s: %v", p.Path, err)
	}
	p.Types = tpkg
	mi.done[p.Path] = tpkg
	return nil
}
