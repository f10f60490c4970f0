// Package lint implements dhslint, the repository's custom static-analysis
// suite. The headline guarantees of this reproduction — byte-identical
// experiment tables at any -workers count, seeded-PCG-only randomness, and
// a networked layer that never blocks on a peer while holding a lock —
// are behavioral invariants that example-based tests can only spot-check.
// The analyzers here enforce them mechanically over the whole tree
// (DESIGN.md §10):
//
//   - determinism: no wall-clock time and no process-global randomness in
//     library and command code; all random streams must flow from explicit
//     seeds.
//   - lockedcopy: no by-value copies of live mutex- or atomic-bearing
//     structs (core.Store, sim.Traffic, dht.Counters) outside snapshot
//     helpers.
//   - conndeadline: every conn Read/Write reachable in internal/netdht
//     must be dominated by a SetDeadline/SetReadDeadline/SetWriteDeadline
//     on the same conn.
//   - lockrpc: no network I/O (dial, frame read/write, RPC exchange)
//     while holding a sync.Mutex/RWMutex acquired in the enclosing
//     function.
//   - wirebounds: allocations sized from decoded wire fields must be
//     preceded by a comparison against a named cap constant or the
//     input length.
//
// conndeadline and lockrpc are built on cross-package facts: an analyzer
// may export facts about a function in one package — "performs network
// I/O", "does raw conn reads" — and consume them while checking another.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, testdata golden tests) but is built only on
// the standard library so the module stays dependency-free.
//
// Intentional violations are suppressed with an annotation on the same
// line or the line directly above:
//
//	//dhslint:allow determinism(reason for the exception)
//
// The analyzer name and a non-empty reason are both required; a malformed
// annotation suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //dhslint:allow
	// annotations.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Match restricts which packages the analyzer runs on, by import
	// path. A nil Match runs on every loaded target package. The driver
	// applies Match; tests bypass it to run fixtures directly.
	Match func(pkgPath string) bool

	// FactsRun, if non-nil, is the first phase of a two-phase analyzer:
	// it runs over every package in the load set (targets and their
	// in-module dependencies, dependency order, ignoring Match) and
	// records facts about package-level objects via pass.Facts. Facts
	// reporting is not allowed in this phase; Reportf panics.
	FactsRun func(pass *Pass) error

	// Run performs the check on one package and reports findings via
	// pass.Reportf. It may read (but not write) the facts accumulated by
	// FactsRun.
	Run func(pass *Pass) error
}

// FactSet holds one analyzer's cross-package facts, keyed by the
// package-level object they describe (typically a *types.Func). It is
// written during the facts phase and read-only during the diagnostics
// phase.
type FactSet struct {
	m map[types.Object]any
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet { return &FactSet{m: map[types.Object]any{}} }

// Set records a fact about obj, replacing any previous one.
func (fs *FactSet) Set(obj types.Object, fact any) {
	if obj == nil {
		return
	}
	fs.m[obj] = fact
}

// Get returns the fact recorded for obj, or nil.
func (fs *FactSet) Get(obj types.Object) any {
	if fs == nil || obj == nil {
		return nil
	}
	return fs.m[obj]
}

// Pass carries one analyzer's view of one package, plus the full load set
// for cross-package inspection (e.g. lockedcopy's guarded-type scan).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// All is every package loaded for this run — targets and their
	// module-internal dependencies — in dependency order.
	All []*Package

	// Facts is the analyzer's cross-package fact set: writable during
	// FactsRun, read-only during Run.
	Facts *FactSet

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.diags == nil {
		panic("lint: Reportf called during the facts phase")
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowRE matches a well-formed suppression: the analyzer name and a
// non-empty parenthesized reason.
var allowRE = regexp.MustCompile(`^//dhslint:allow ([a-z]+)\((.+)\)\s*$`)

// allowedLines returns, per analyzer name, the set of file lines whose
// findings are suppressed: the line the annotation sits on and, for
// full-line comments, the line below it.
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]map[lineKey]bool {
	out := map[string]map[lineKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				name := m[1]
				if out[name] == nil {
					out[name] = map[lineKey]bool{}
				}
				pos := fset.Position(c.Pos())
				out[name][lineKey{pos.Filename, pos.Line}] = true
				out[name][lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return out
}

type lineKey struct {
	file string
	line int
}

// Run executes the analyzers over the target packages in two phases and
// returns the surviving findings sorted by position. Phase one runs each
// analyzer's FactsRun over the full load set — targets plus in-module
// dependencies, in dependency order, ignoring Match — so facts about a
// dependency (e.g. "peers.exchange performs network I/O") are available
// when a dependent package is checked. Phase two runs the diagnostics
// passes package by package and applies //dhslint:allow suppression.
// Analyzer Match filters are consulted only when useMatch is set
// (cmd/dhslint); golden tests run every analyzer on every fixture.
func Run(analyzers []*Analyzer, pkgs []*Package, useMatch bool) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	facts := make(map[*Analyzer]*FactSet, len(analyzers))
	for _, a := range analyzers {
		facts[a] = NewFactSet()
		if a.FactsRun == nil {
			continue
		}
		for _, pkg := range pkgs[0].all {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, All: pkg.all, Facts: facts[a]}
			if err := a.FactsRun(pass); err != nil {
				return nil, fmt.Errorf("%s facts on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		allowed := allowedLines(pkg.Fset, pkg.Syntax)
		for _, a := range analyzers {
			if useMatch && a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			var raw []Diagnostic
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, All: pkg.all, Facts: facts[a], diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range raw {
				if !allowed[a.Name][lineKey{d.Pos.Filename, d.Pos.Line}] {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LockedCopyAnalyzer,
		ConnDeadlineAnalyzer,
		LockRPCAnalyzer,
		WireBoundsAnalyzer,
	}
}

// --- shared type/AST helpers used by several analyzers ---

// pkgNameOf resolves an identifier to the package it names via an import,
// or nil.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// calleeFunc resolves a call expression to the function or method object
// it invokes, or nil (builtins, function-typed variables, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// pathHasSuffix reports whether an import path is pkg or ends in "/pkg" —
// matching both the real module layout ("dhsketch/internal/dht") and the
// GOPATH-style fixture layout used by the golden tests.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
