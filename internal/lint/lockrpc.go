package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockRPCAnalyzer statically enforces the transport layer's "no RPC
// under any lock" rule (DESIGN.md §14): a sync.Mutex or sync.RWMutex
// acquired in a function must not be held across network I/O — a dial,
// a frame read/write, or any call that transitively performs one. A
// slow or dead peer would otherwise stretch the critical section to the
// RPC timeout and stall every local operation behind it (the counting
// hot path, stabilization, shutdown).
//
// Phase one records a netio fact for every function in the load set
// that performs network I/O: a net.Dial* call, a Read/Write method call
// on a connection-shaped value or through a reader/writer interface, an
// io.ReadFull-style transfer, or a call to a function already marked. An
// interface method is marked when any implementation in the load set
// is — the Chord state machine in internal/chord reaches the network
// only through its Peers interface, whose TCP implementation lives in a
// package that imports it, so following concrete callees alone would
// leave "no peer call under the node's lock" unchecked there.
// Phase two tracks Lock/RLock→Unlock/RUnlock intervals per canonical
// mutex expression — a sync mutex, or any type that is a sync.Locker —
// inside each function of a matched package (a
// deferred unlock extends the interval to the function's end) and
// reports one diagnostic per interval that covers a netio call, at the
// Lock call — so a single //dhslint:allow lockrpc(reason) on the Lock
// line suppresses an intentional serialization lock. goroutine launches
// and function-literal bodies are skipped: a `go` statement returns
// immediately, and the spawned body does not hold the caller's lock
// position in this analysis.
var LockRPCAnalyzer = &Analyzer{
	Name: "lockrpc",
	Doc:  "forbid network I/O while holding a sync.Mutex/RWMutex acquired in the enclosing function",
	Match: func(pkgPath string) bool {
		return pathHasSuffix(pkgPath, "internal/netdht") ||
			pathHasSuffix(pkgPath, "internal/chord") ||
			pathHasSuffix(pkgPath, "internal/serve") ||
			pathHasSuffix(pkgPath, "cmd/dhsnode") ||
			pathHasSuffix(pkgPath, "cmd/dhsd")
	},
	FactsRun: runNetIOFacts,
	Run:      runLockRPC,
}

// netIOFact marks a function that performs network I/O; why describes
// the shortest discovered chain ("net.DialTimeout", "exchange → roundTrip
// → Write").
type netIOFact struct {
	why string
}

// netIOIn returns a description of the first network-I/O operation
// performed directly by this call, or "" if it is not one.
func netIOIn(pass *Pass, call *ast.CallExpr) string {
	info := pass.Pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isMethodUse(info, sel) {
		if sel.Sel.Name == "Read" || sel.Sel.Name == "Write" {
			recv := info.TypeOf(sel.X)
			if connLike(recv) || ifaceReaderWriter(recv) {
				return sel.Sel.Name + " on " + types.ExprString(sel.X)
			}
		}
	}
	f := calleeFunc(info, call)
	if isNetDial(f) {
		return "net." + f.Name()
	}
	if len(ioTransferArgs(f)) > 0 {
		return "io." + f.Name()
	}
	if fact, ok := pass.Facts.Get(f).(*netIOFact); ok {
		return f.Name() + " → " + fact.why
	}
	return ""
}

func runNetIOFacts(pass *Pass) error {
	ifaces, impls := namedTypesSoFar(pass)
	for changed := true; changed; {
		changed = false
		for _, file := range pass.Pkg.Syntax {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj := funcObjOf(pass.Pkg.Info, decl)
				if obj == nil || pass.Facts.Get(obj) != nil {
					continue
				}
				why := ""
				inspectSkipLits(decl.Body, func(n ast.Node) bool {
					if why != "" {
						return false
					}
					// A goroutine launch returns immediately; the caller
					// itself does not block on the spawned I/O.
					if _, ok := n.(*ast.GoStmt); ok {
						return false
					}
					if call, ok := n.(*ast.CallExpr); ok {
						why = netIOIn(pass, call)
					}
					return true
				})
				if why != "" {
					pass.Facts.Set(obj, &netIOFact{why: why})
					changed = true
				}
			}
		}
		if markNetIOInterfaces(pass, ifaces, impls) {
			changed = true
		}
	}
	return nil
}

// namedTypesSoFar lists the method-set interfaces and the concrete
// named types declared in the packages loaded up to and including the
// current one (generic types excluded).
func namedTypesSoFar(pass *Pass) (ifaces, impls []*types.Named) {
	for _, pkg := range pass.All {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); !ok {
				impls = append(impls, named)
			} else if it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, named)
			}
		}
		if pkg == pass.Pkg {
			break
		}
	}
	return ifaces, impls
}

// markNetIOInterfaces gives an interface method the netio fact of an
// implementation's method. It pairs every concrete named type with
// every interface among the packages loaded so far, taking only pairs
// that involve the current package (earlier packages paired among
// themselves on their own pass), and reports whether it marked anything
// new.
func markNetIOInterfaces(pass *Pass, ifaces, impls []*types.Named) bool {
	marked := false
	for _, in := range ifaces {
		it := in.Underlying().(*types.Interface)
		for _, impl := range impls {
			if in.Obj().Pkg() != pass.Pkg.Types && impl.Obj().Pkg() != pass.Pkg.Types {
				continue
			}
			ptr := types.NewPointer(impl)
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if pass.Facts.Get(m) != nil {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if fact, ok := pass.Facts.Get(obj).(*netIOFact); ok {
					pass.Facts.Set(m, &netIOFact{why: impl.Obj().Name() + "." + m.Name() + " → " + fact.why})
					marked = true
				}
			}
		}
	}
	return marked
}

// mutexMethod resolves call to a sync.Mutex/sync.RWMutex method — or
// the same method through a sync.Locker, or of a type that is one —
// returning the canonical mutex expression and the method name.
func mutexMethod(info *types.Info, call *ast.CallExpr) (canon, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil || !recvNamed(f, "sync", "Mutex", "RWMutex", "Locker") && !lockerMethod(f) {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), f.Name(), true
	}
	return "", "", false
}

// lockerMethod reports whether f is a method of a concrete type that is a
// sync.Locker: a wrapper around a mutex, such as one that may hold none,
// locks like the mutex it wraps.
func lockerMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for _, name := range []string{"Lock", "Unlock"} {
		m := ms.Lookup(nil, name)
		if m == nil {
			return false
		}
		if s := m.Obj().Type().(*types.Signature); s.Params().Len() != 0 || s.Results().Len() != 0 {
			return false
		}
	}
	return true
}

// lockEvent is one Lock/Unlock/netio occurrence, ordered by position.
type lockEvent struct {
	pos      token.Pos
	kind     int // 0 lock, 1 unlock, 2 netio
	canon    string
	deferred bool
	why      string // netio description
}

func runLockRPC(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			deferred := map[*ast.CallExpr]bool{}
			var events []lockEvent
			inspectSkipLits(decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					return false
				case *ast.DeferStmt:
					deferred[n.Call] = true
				case *ast.CallExpr:
					if canon, name, ok := mutexMethod(info, n); ok {
						kind := 0
						if strings.HasSuffix(name, "Unlock") {
							kind = 1
						}
						events = append(events, lockEvent{
							pos: n.Pos(), kind: kind, canon: canon, deferred: deferred[n],
						})
						return true
					}
					if why := netIOIn(pass, n); why != "" {
						events = append(events, lockEvent{pos: n.Pos(), kind: 2, why: why})
					}
				}
				return true
			})
			// Events arrive in source order (ast.Inspect is a pre-order
			// walk). Track the open interval per canonical mutex; a
			// deferred unlock leaves it open to the function end.
			type openLock struct {
				pos      token.Pos
				reported bool
			}
			open := map[string]*openLock{}
			for _, ev := range events {
				switch ev.kind {
				case 0:
					if !ev.deferred {
						open[ev.canon] = &openLock{pos: ev.pos}
					}
				case 1:
					if !ev.deferred {
						delete(open, ev.canon)
					}
				case 2:
					for canon, ol := range open {
						if ol.reported {
							continue
						}
						ol.reported = true
						pass.Reportf(ol.pos, "%s is held across network I/O (%s); release it before dialing or exchanging frames", canon, ev.why)
					}
				}
			}
		}
	}
	return nil
}
