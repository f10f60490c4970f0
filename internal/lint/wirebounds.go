package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireBoundsAnalyzer is the static face of the wire fuzz targets
// (DESIGN.md §14): any allocation whose size flows from a decoded wire
// field must first be compared against a named cap constant or the
// input's length. A peer controls every decoded integer, so an
// unguarded `make([]T, n)` is a remote allocation bomb — exactly the
// class behind the uint16 truncation bugs the transport PR fixed.
//
// Taint seeds are calls to encoding/binary's ByteOrder readers
// (Uint16/Uint32/Uint64) and calls to functions named Decode*/decode*
// (so a struct returned by a wire decoder is tainted as a whole).
// Taint propagates through assignments; `len(...)` subexpressions are
// exempt — the length of a decoded slice is bounded by the bytes that
// actually arrived, which is the legitimate way to bound loops. A
// tainted value is considered guarded below any comparison (<, <=, >,
// >=) that mentions it alongside a named constant or a len(...) call.
// Sinks are make() sizes/capacities and io.CopyN byte counts.
var WireBoundsAnalyzer = &Analyzer{
	Name: "wirebounds",
	Doc:  "require a bound check against a named cap before allocations sized from decoded wire fields",
	Match: func(pkgPath string) bool {
		return pathHasSuffix(pkgPath, "internal/wire") ||
			pathHasSuffix(pkgPath, "internal/netdht") ||
			pathHasSuffix(pkgPath, "internal/respond")
	},
	Run: runWireBounds,
}

// isTaintSeed reports whether call reads attacker-controlled bytes: a
// binary.ByteOrder integer read or a wire-decoder-shaped call.
func isTaintSeed(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	if f.Pkg() != nil && f.Pkg().Path() == "encoding/binary" &&
		strings.HasPrefix(f.Name(), "Uint") {
		return true
	}
	return strings.HasPrefix(f.Name(), "Decode") || strings.HasPrefix(f.Name(), "decode")
}

// taintedIdents collects the objects of identifiers inside e that carry
// taint, and reports whether e contains a direct taint seed. len(...)
// subtrees are skipped.
func taintedIdents(info *types.Info, e ast.Expr, tainted map[types.Object]bool) (objs []types.Object, seed bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isLenCall(info, n) {
				return false
			}
			if isTaintSeed(info, n) {
				seed = true
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				obj = info.Defs[n]
			}
			if obj != nil && tainted[obj] {
				objs = append(objs, obj)
			}
		}
		return true
	})
	return objs, seed
}

// isLenCall reports whether call invokes the len builtin.
func isLenCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "len"
}

// exprMentionsBound reports whether e references a named constant or a
// len(...) call — something that can legitimately bound a decoded value.
func exprMentionsBound(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isLenCall(info, n) {
				found = true
			}
		case *ast.Ident:
			if _, ok := info.Uses[n].(*types.Const); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

func runWireBounds(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkWireBounds(pass, info, decl)
		}
	}
	return nil
}

func checkWireBounds(pass *Pass, info *types.Info, decl *ast.FuncDecl) {
	// Pass 1: flow-insensitive taint fixpoint over assignments. Being
	// order-blind here is conservative in the right direction — it can
	// only taint more, and guards below are position-checked.
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		inspectSkipLits(decl.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			taintLHS := func(lhs ast.Expr) {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					return
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			if len(assign.Rhs) == len(assign.Lhs) {
				for i, rhs := range assign.Rhs {
					if objs, seed := taintedIdents(info, rhs, tainted); seed || len(objs) > 0 {
						taintLHS(assign.Lhs[i])
					}
				}
			} else if len(assign.Rhs) == 1 {
				if objs, seed := taintedIdents(info, assign.Rhs[0], tainted); seed || len(objs) > 0 {
					for _, lhs := range assign.Lhs {
						taintLHS(lhs)
					}
				}
			}
			return true
		})
	}

	// Pass 2: record the earliest bound-check position per tainted
	// object, then flag sinks that precede every guard of their taint.
	guardPos := map[types.Object]token.Pos{}
	inspectSkipLits(decl.Body, func(n ast.Node) bool {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cmp.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		if !exprMentionsBound(info, cmp) {
			return true
		}
		objs, _ := taintedIdents(info, cmp, tainted)
		for _, obj := range objs {
			if p, ok := guardPos[obj]; !ok || cmp.Pos() < p {
				guardPos[obj] = cmp.Pos()
			}
		}
		return true
	})

	reportSink := func(call *ast.CallExpr, size ast.Expr, what string) {
		objs, seed := taintedIdents(info, size, tainted)
		bad := seed // an inline decode in the size expression cannot have been guarded
		for _, obj := range objs {
			if p, ok := guardPos[obj]; !ok || call.Pos() < p {
				bad = true
			}
		}
		if bad {
			pass.Reportf(call.Pos(), "%s sized from decoded wire input (%s) with no preceding bound check against a named cap or the input length", what, types.ExprString(size))
		}
	}
	inspectSkipLits(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "make" {
				for _, size := range call.Args[1:] {
					reportSink(call, size, "allocation")
				}
				return true
			}
		}
		if f := calleeFunc(info, call); f != nil && f.Pkg() != nil &&
			f.Pkg().Path() == "io" && f.Name() == "CopyN" && len(call.Args) == 3 {
			reportSink(call, call.Args[2], "io.CopyN byte count")
		}
		return true
	})
}
