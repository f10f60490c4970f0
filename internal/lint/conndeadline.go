package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConnDeadlineAnalyzer enforces the transport layer's liveness contract
// (DESIGN.md §14): every raw read or write on a connection must be
// dominated by a SetDeadline/SetReadDeadline/SetWriteDeadline on the
// same connection, or a dead peer parks a goroutine forever. A setter
// handed the literal time.Time{} clears the deadline, so it is no guard.
// A conn is anything connection-shaped (its method set has the deadline
// setters); "dominated" is approximated as a deadline call on the same
// canonical expression earlier in the same function body.
//
// The check is interprocedural via facts: phase one records, for every
// function in the load set, which reader/writer parameters reach raw
// I/O (a Read/Write method call, an io.ReadFull-style transfer, or a
// call into another function with such a fact) without a local deadline.
// Phase two reports each site in a matched package where a conn-typed
// value — a local, a field, anything that is not itself a parameter —
// flows into undeadlined I/O. Parameter sites are not reported where
// they occur; they surface at the caller that supplies the conn, which
// is the frame that owns the deadline decision (this is how
// handleConn-style loops are attributed to the accept path that created
// the socket). Function literals are skipped: a closure's body does not
// execute at its definition point.
var ConnDeadlineAnalyzer = &Analyzer{
	Name: "conndeadline",
	Doc:  "require a dominating Set*Deadline before raw conn reads and writes",
	Match: func(pkgPath string) bool {
		return pathHasSuffix(pkgPath, "internal/netdht") ||
			pathHasSuffix(pkgPath, "internal/respond")
	},
	FactsRun: runConnDeadlineFacts,
	Run:      runConnDeadline,
}

// connIOFact marks a function whose parameters reach raw I/O with no
// locally-armed deadline; params maps parameter index to a description
// of the I/O chain ("io.ReadFull", "readFrame → io.ReadFull").
type connIOFact struct {
	params map[int]string
}

// connSite is one raw-I/O operation on a connection-shaped or
// reader/writer-shaped value.
type connSite struct {
	pos      token.Pos
	canon    string // canonical source expression of the conn value
	obj      types.Object
	what     string // I/O chain description for diagnostics
	connLike bool   // the value has deadline setters (reportable)
}

// connGuard is one Set*Deadline call.
type connGuard struct {
	pos   token.Pos
	canon string
}

// connScan collects the raw-I/O sites and deadline guards in one
// function body, resolving callee facts for interprocedural sites.
func connScan(pass *Pass, decl *ast.FuncDecl) (sites []connSite, guards []connGuard) {
	info := pass.Pkg.Info
	addSite := func(e ast.Expr, pos token.Pos, what string) {
		t := info.TypeOf(e)
		if !connLike(t) && !ifaceReaderWriter(t) {
			return
		}
		sites = append(sites, connSite{
			pos:      pos,
			canon:    types.ExprString(e),
			obj:      identObj(info, e),
			what:     what,
			connLike: connLike(t),
		})
	}
	inspectSkipLits(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if info.Selections[sel] != nil || isMethodUse(info, sel) {
				recv := info.TypeOf(sel.X)
				switch {
				case deadlineSetters[sel.Sel.Name] && connLike(recv):
					if len(call.Args) != 1 || !zeroTime(info, call.Args[0]) {
						guards = append(guards, connGuard{pos: call.Pos(), canon: types.ExprString(sel.X)})
					}
					return true
				case (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") &&
					(connLike(recv) || ifaceReaderWriter(recv)):
					addSite(sel.X, call.Pos(), sel.Sel.Name)
					return true
				}
			}
		}
		f := calleeFunc(info, call)
		for _, i := range ioTransferArgs(f) {
			if i < len(call.Args) {
				addSite(call.Args[i], call.Pos(), "io."+f.Name())
			}
		}
		if fact, ok := pass.Facts.Get(f).(*connIOFact); ok {
			for i, what := range fact.params {
				if i < len(call.Args) {
					addSite(call.Args[i], call.Pos(), f.Name()+" → "+what)
				}
			}
		}
		return true
	})
	return sites, guards
}

// zeroTime reports whether e is the literal time.Time{}: a deadline set to
// it is cleared, and guards nothing.
func zeroTime(info *types.Info, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) != 0 {
		return false
	}
	named, ok := info.TypeOf(lit).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// isMethodUse reports whether sel resolves to a method (as opposed to a
// package-qualified function or a field of function type).
func isMethodUse(info *types.Info, sel *ast.SelectorExpr) bool {
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// guardedBefore reports whether some guard on the same canonical conn
// precedes pos.
func guardedBefore(guards []connGuard, canon string, pos token.Pos) bool {
	for _, g := range guards {
		if g.canon == canon && g.pos < pos {
			return true
		}
	}
	return false
}

func runConnDeadlineFacts(pass *Pass) error {
	// Iterate to a fixpoint within the package: a function's fact can
	// depend on a same-package callee declared later in the file set.
	// Cross-package dependencies are resolved by the loader's dependency
	// order.
	for changed := true; changed; {
		changed = false
		for _, file := range pass.Pkg.Syntax {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj := funcObjOf(pass.Pkg.Info, decl)
				if obj == nil {
					continue
				}
				params := paramIndexes(pass.Pkg.Info, decl)
				sites, guards := connScan(pass, decl)
				unsafe := map[int]string{}
				for _, s := range sites {
					if guardedBefore(guards, s.canon, s.pos) || s.obj == nil {
						continue
					}
					if i, ok := params[s.obj]; ok {
						if _, seen := unsafe[i]; !seen {
							unsafe[i] = s.what
						}
					}
				}
				if len(unsafe) == 0 {
					continue
				}
				if prev, ok := pass.Facts.Get(obj).(*connIOFact); ok && sameParamFacts(prev.params, unsafe) {
					continue
				}
				pass.Facts.Set(obj, &connIOFact{params: unsafe})
				changed = true
			}
		}
	}
	return nil
}

func sameParamFacts(a, b map[int]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runConnDeadline(pass *Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			params := paramIndexes(pass.Pkg.Info, decl)
			sites, guards := connScan(pass, decl)
			for _, s := range sites {
				if !s.connLike || guardedBefore(guards, s.canon, s.pos) {
					continue
				}
				if s.obj != nil {
					if _, isParam := params[s.obj]; isParam {
						continue // attributed to the callers that supply the conn
					}
				}
				pass.Reportf(s.pos, "conn %s reaches raw I/O (%s) with no dominating deadline; call SetDeadline/SetReadDeadline/SetWriteDeadline on it first", s.canon, s.what)
			}
		}
	}
	return nil
}
