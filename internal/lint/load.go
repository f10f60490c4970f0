package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("dhsketch/internal/core", or a
	// testdata-relative path in golden tests).
	Path   string
	Dir    string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info

	// all is the complete load set this package belongs to, in
	// dependency order; exposed to analyzers via Pass.All.
	all []*Package
}

// Loader type-checks packages from source using only the standard
// library: in-module imports are resolved under Root, everything else is
// assumed to be standard library and handled by go/importer's source
// importer. The module has no third-party dependencies, and the lint
// gate keeps it that way implicitly — an external import would simply
// fail to load here.
type Loader struct {
	// Root is the directory packages are resolved beneath.
	Root string
	// ModulePath is the import-path prefix corresponding to Root
	// ("dhsketch" for the real module, "" for GOPATH-style test fixtures
	// where every import resolves under Root).
	ModulePath string

	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*Package
	order  []*Package
}

// NewLoader returns a loader rooted at root with the given module path.
func NewLoader(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		byPath:     map[string]*Package{},
	}
}

// NewModuleLoader locates the enclosing module (the nearest go.mod at or
// above dir) and returns a loader for it.
func NewModuleLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mod := modulePathOf(string(data))
			if mod == "" {
				return nil, fmt.Errorf("lint: no module line in %s/go.mod", d)
			}
			return NewLoader(d, mod), nil
		}
		if parent := filepath.Dir(d); parent == d {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
	}
}

func modulePathOf(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves the patterns to package directories, loads and
// type-checks them (plus their in-module dependencies), and returns the
// target packages in deterministic path order. Patterns follow the go
// tool's shape: "./..." walks everything under Root, "./x/..." walks a
// subtree, "./x/y" names one directory. Directories named "testdata" or
// starting with "." or "_" are skipped, as are test files — the
// invariants guard the shipped code paths; tests exercise them.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var targets []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir, nil)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			targets = append(targets, pkg)
		}
	}
	for _, p := range l.order {
		p.all = l.order
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Path < targets[j].Path })
	return targets, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = sub, true
		}
		if !recursive {
			if hasGoFiles(filepath.Join(l.Root, pat)) {
				add(filepath.Join(l.Root, pat))
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", pat)
			}
			continue
		}
		root := filepath.Join(l.Root, pat)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != root {
				// A nested module (bench/) is not part of this one: the go
				// tool's ./... stops at its go.mod, and so does this walk.
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFilesIn(dir)
	return err == nil && len(names) > 0
}

func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor maps a directory under Root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	switch {
	case rel == ".":
		return l.ModulePath, nil
	case l.ModulePath == "":
		return rel, nil
	default:
		return l.ModulePath + "/" + rel, nil
	}
}

// dirForImport maps an import path to a directory under Root, or ""
// when the path is outside the module (standard library).
func (l *Loader) dirForImport(path string) string {
	if l.ModulePath == "" {
		dir := filepath.Join(l.Root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
		return ""
	}
	if path == l.ModulePath {
		return l.Root
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest))
	}
	return ""
}

// loadDir loads and type-checks the package in dir, memoized. stack
// carries the in-progress import chain for cycle reporting.
func (l *Loader) loadDir(dir string, stack []string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byPath[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		return pkg, nil
	}
	l.byPath[path] = nil // cycle marker
	stack = append(stack, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	// Type-check in-module imports first so they are available below.
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if depDir := l.dirForImport(ipath); depDir != "" {
				if _, err := l.loadDir(depDir, stack); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: &moduleImporter{l}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Syntax: files, Types: tpkg, Info: info}
	l.byPath[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// moduleImporter resolves in-module imports from the loader's memo and
// defers everything else to the standard-library source importer.
type moduleImporter struct{ l *Loader }

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if dir := m.l.dirForImport(path); dir != "" {
		pkg, err := m.l.loadDir(dir, nil)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.l.std.Import(path)
}
