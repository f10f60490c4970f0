package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConnDeadlineAnalyzer enforces the transport layer's liveness contract
// (DESIGN.md §14): every raw read on a connection must be dominated by a
// SetReadDeadline or SetDeadline on the same connection, and every raw
// write by a SetWriteDeadline or SetDeadline, or a dead peer parks a
// goroutine forever. A setter handed the literal time.Time{} clears the
// deadline, so it is no guard. A conn is anything connection-shaped (its
// method set has the deadline setters); "dominated" is approximated as a
// deadline call on the same canonical expression earlier in the same
// function body, in a block that encloses the I/O — a setter in a branch
// the I/O is not in guards nothing there. A bufio.Reader
// or bufio.Writer made on a conn (bufio.NewReader, NewReaderSize,
// NewWriter, NewWriterSize) or reset onto one carries that conn: from
// there on in the function, a read or write through it is I/O on the conn,
// and the conn's deadline is what guards it.
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
// the socket). A function passed on as a value instead — a handler given
// to an accept loop — has no caller in sight, so a conn parameter of it
// that reaches undeadlined I/O is reported where the function is passed.
// Function literals are skipped: a closure's body does not execute at its
// definition point.
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
// locally-armed deadline; params maps parameter index to that I/O.
type connIOFact struct {
	params map[int]paramIO
}

// paramIO is the unguarded I/O a parameter reaches: a description of the
// first chain found each way ("io.ReadFull", "readFrame → io.ReadFull"),
// empty where there is none.
type paramIO struct {
	read, write string
}

// connSite is one raw-I/O operation on a connection-shaped or
// reader/writer-shaped value.
type connSite struct {
	pos      token.Pos
	canon    string // canonical source expression of the conn value
	obj      types.Object
	what     string // I/O chain description for diagnostics
	dir      ioDir  // dirRead or dirWrite
	connLike bool   // the value has deadline setters (reportable)
}

// connGuard is one Set*Deadline call: the directions it bounds, and the
// innermost block, case clause or select clause it sits in.
type connGuard struct {
	pos   token.Pos
	canon string
	dir   ioDir
	block ast.Node
}

// connScan collects the raw-I/O sites and deadline guards in one
// function body, resolving callee facts for interprocedural sites. A site
// on a bufio buffer that carries a conn is a site on the conn.
func connScan(pass *Pass, decl *ast.FuncDecl) (sites []connSite, guards []connGuard) {
	info := pass.Pkg.Info
	carries := map[string]ast.Expr{} // bufio buffer → the conn it reads or writes
	carry := func(buf, conn ast.Expr) {
		if connLike(info.TypeOf(conn)) {
			carries[types.ExprString(buf)] = conn
		} else {
			delete(carries, types.ExprString(buf))
		}
	}
	addSite := func(e ast.Expr, pos token.Pos, what string, dir ioDir) {
		conn := bufioNewOn(info, e)
		if conn == nil {
			conn = carries[types.ExprString(e)]
		}
		if conn != nil {
			what += " via " + types.ExprString(e)
			e = conn
		}
		t := info.TypeOf(e)
		if !connLike(t) && !ifaceReaderWriter(t) && bufioDir(t) == 0 {
			return
		}
		sites = append(sites, connSite{
			pos:      pos,
			canon:    types.ExprString(e),
			obj:      identObj(info, e),
			what:     what,
			dir:      dir,
			connLike: connLike(t),
		})
	}
	inspectSkipLits(decl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if conn := bufioNewOn(info, rhs); conn != nil {
					carry(as.Lhs[i], conn)
				}
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if info.Selections[sel] != nil || isMethodUse(info, sel) {
				recv := info.TypeOf(sel.X)
				switch {
				case deadlineSetters[sel.Sel.Name] != 0 && connLike(recv):
					if len(call.Args) != 1 || !zeroTime(info, call.Args[0]) {
						guards = append(guards, connGuard{pos: call.Pos(), canon: types.ExprString(sel.X),
							dir: deadlineSetters[sel.Sel.Name], block: enclosingBlock(decl.Body, call.Pos())})
					}
					return true
				case sel.Sel.Name == "Read" && (connLike(recv) || ifaceReaderWriter(recv)):
					addSite(sel.X, call.Pos(), "Read", dirRead)
					return true
				case sel.Sel.Name == "Write" && (connLike(recv) || ifaceReaderWriter(recv)):
					addSite(sel.X, call.Pos(), "Write", dirWrite)
					return true
				case bufioDir(recv) != 0 && sel.Sel.Name == "Reset" && len(call.Args) == 1:
					carry(sel.X, call.Args[0])
					return true
				case bufioDir(recv) != 0 && !bufioNoIO[sel.Sel.Name]:
					addSite(sel.X, call.Pos(), sel.Sel.Name, bufioDir(recv))
					return true
				}
			}
		}
		f := calleeFunc(info, call)
		for i, dir := range ioTransferArgs(f) {
			if i < len(call.Args) {
				addSite(call.Args[i], call.Pos(), "io."+f.Name(), dir)
			}
		}
		if fact, ok := pass.Facts.Get(f).(*connIOFact); ok {
			for i, use := range fact.params {
				if i >= len(call.Args) {
					continue
				}
				if use.read != "" {
					addSite(call.Args[i], call.Pos(), f.Name()+" → "+use.read, dirRead)
				}
				if use.write != "" {
					addSite(call.Args[i], call.Pos(), f.Name()+" → "+use.write, dirWrite)
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

// enclosingBlock returns the innermost block, case clause or select clause
// of body that holds pos.
func enclosingBlock(body *ast.BlockStmt, pos token.Pos) ast.Node {
	var inner ast.Node = body
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			inner = n
		}
		return true
	})
	return inner
}

// guarded reports whether a guard covers s: one that bounds s's direction,
// is on the same canonical conn, precedes s, and sits in a block that
// encloses s.
func guarded(guards []connGuard, s connSite) bool {
	for _, g := range guards {
		if g.dir&s.dir != 0 && g.canon == s.canon && g.pos < s.pos && g.block.Pos() <= s.pos && s.pos < g.block.End() {
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
				unsafe := map[int]paramIO{}
				for _, s := range sites {
					if guarded(guards, s) || s.obj == nil {
						continue
					}
					i, ok := params[s.obj]
					if !ok {
						continue
					}
					use := unsafe[i]
					switch {
					case s.dir == dirRead && use.read == "":
						use.read = s.what
					case s.dir == dirWrite && use.write == "":
						use.write = s.what
					}
					unsafe[i] = use
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

func sameParamFacts(a, b map[int]paramIO) bool {
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
				if !s.connLike || guarded(guards, s) {
					continue
				}
				if s.obj != nil {
					if _, isParam := params[s.obj]; isParam {
						continue // attributed to the callers that supply the conn
					}
				}
				setter := "SetReadDeadline"
				if s.dir == dirWrite {
					setter = "SetWriteDeadline"
				}
				pass.Reportf(s.pos, "conn %s reaches raw I/O (%s) with no dominating deadline; call %s or SetDeadline on it first", s.canon, s.what, setter)
			}
			reportConnHandlers(pass, decl)
		}
	}
	return nil
}

// reportConnHandlers reports each function decl's body passes on as a
// value — a connection handler handed to an accept loop — while a conn
// parameter of it reaches undeadlined I/O. Whoever calls a function value
// is out of sight, so such a function arms its own deadlines.
func reportConnHandlers(pass *Pass, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	called := map[*ast.Ident]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fn := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				called[fn] = true
			case *ast.SelectorExpr:
				called[fn.Sel] = true
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok || called[id] {
			return true
		}
		f, _ := info.Uses[id].(*types.Func)
		if f == nil {
			return true
		}
		fact, _ := pass.Facts.Get(f).(*connIOFact)
		if fact == nil {
			return true
		}
		params := f.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if use, ok := fact.params[i]; ok && connLike(params.At(i).Type()) {
				what := use.read
				if what == "" {
					what = use.write
				}
				pass.Reportf(id.Pos(), "%s is passed as a value, and its conn %s reaches raw I/O (%s) with no dominating deadline; arm one in %s", f.Name(), params.At(i).Name(), what, f.Name())
				break
			}
		}
		return true
	})
}
