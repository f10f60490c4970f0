package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared machinery for the protocol-aware analyzers (conndeadline,
// lockrpc, wirebounds). Detection of "connection-shaped" and
// "reader/writer-shaped" values is structural — by method set, not by
// identity with net.Conn — so the analyzers work on wrapper types and
// the golden fixtures can model sockets without importing package net.

// ioDir is the way raw I/O moves data, or the ways a deadline bounds.
type ioDir uint8

const (
	dirRead ioDir = 1 << iota
	dirWrite
)

// deadlineSetters are the net.Conn methods that arm a socket deadline, each
// with the directions of I/O its deadline bounds.
var deadlineSetters = map[string]ioDir{
	"SetDeadline": dirRead | dirWrite, "SetReadDeadline": dirRead, "SetWriteDeadline": dirWrite,
}

// hasNamedMethod reports whether t (or *t) has a method with one of the
// given exported names, declared or embedded.
func hasNamedMethod(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	for _, name := range names {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// connLike reports whether t is connection-shaped: its method set
// includes a socket deadline setter (net.Conn, *net.TCPConn, fixture
// fakes, wrappers).
func connLike(t types.Type) bool {
	return hasNamedMethod(t, "SetDeadline", "SetReadDeadline", "SetWriteDeadline")
}

// ifaceReaderWriter reports whether t is an interface whose method set
// includes Read or Write (io.Reader, io.Writer, net.Conn, ...). Calls
// through such interfaces may reach a socket; concrete buffer types
// (bytes.Buffer, strings.Builder) deliberately do not qualify.
func ifaceReaderWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); !ok {
		return false
	}
	return hasNamedMethod(t, "Read", "Write")
}

// bufioDir is dirRead when t is *bufio.Reader and dirWrite when it is
// *bufio.Writer, which read or write whatever they were made on or last
// reset onto; 0 for any other type.
func bufioDir(t types.Type) ioDir {
	p, ok := t.(*types.Pointer)
	if !ok {
		return 0
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return 0
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "bufio" {
		return 0
	}
	switch obj.Name() {
	case "Reader":
		return dirRead
	case "Writer":
		return dirWrite
	}
	return 0
}

// bufioNoIO are the bufio.Reader and bufio.Writer methods that never touch
// the underlying reader or writer; every other method may.
var bufioNoIO = map[string]bool{
	"Reset": true, "Size": true, "Buffered": true, "Available": true,
	"AvailableBuffer": true, "UnreadByte": true, "UnreadRune": true,
}

// bufioNewOn returns what e makes a bufio.Reader or bufio.Writer on, when e
// is a call of bufio.NewReader, NewReaderSize, NewWriter or NewWriterSize,
// and nil otherwise.
func bufioNewOn(info *types.Info, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "bufio" {
		return nil
	}
	switch f.Name() {
	case "NewReader", "NewReaderSize", "NewWriter", "NewWriterSize":
		return call.Args[0]
	}
	return nil
}

// ioTransferArgs returns, for a call to one of package io's blocking
// transfer helpers, how it moves data through each of its leading
// arguments, by index: read from or written to; nil for any other function.
func ioTransferArgs(f *types.Func) []ioDir {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "io" {
		return nil
	}
	switch f.Name() {
	case "ReadFull", "ReadAtLeast", "ReadAll":
		return []ioDir{dirRead}
	case "Copy", "CopyN":
		return []ioDir{dirWrite, dirRead}
	case "WriteString":
		return []ioDir{dirWrite}
	}
	return nil
}

// isNetDial reports whether f is one of package net's Dial variants.
func isNetDial(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "net" &&
		strings.HasPrefix(f.Name(), "Dial")
}

// inspectSkipLits walks n like ast.Inspect but does not descend into
// function literals: statements inside a closure do not execute at the
// closure's definition point, so flow-sensitive scans (deadline
// domination, lock intervals, taint) must not attribute them to the
// enclosing function.
func inspectSkipLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// funcObjOf returns the *types.Func declared by d, or nil.
func funcObjOf(info *types.Info, d *ast.FuncDecl) *types.Func {
	f, _ := info.Defs[d.Name].(*types.Func)
	return f
}

// paramIndexes maps each named parameter object of d to its index in
// the parameter list (receivers excluded, to line up with CallExpr.Args
// at call sites).
func paramIndexes(info *types.Info, d *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	if d.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range d.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// identObj resolves e to the object of a plain identifier, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// recvNamed reports whether f is a method whose (pointer-dereferenced)
// receiver is a named type declared in package pkgPath with one of the
// given names.
func recvNamed(f *types.Func, pkgPath string, names ...string) bool {
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}
