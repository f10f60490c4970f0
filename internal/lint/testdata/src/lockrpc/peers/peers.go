// Package peers is a lockrpc fixture shaped like internal/chord: a node
// state machine that reaches the rest of the ring only through an
// interface. Nothing in this package touches a socket — the
// implementation that does lives in lockrpc/tcp, which imports this
// package — so the analyzer can see the invariant here only if the
// interface method inherits the netio fact of its implementations.
package peers

import "sync"

// Peers is the seam: Ping has a TCP implementation elsewhere in the
// load set, Name has none that performs I/O.
type Peers interface {
	Ping(to string) error
	Name() string
}

// mem is the in-memory implementation: no I/O anywhere.
type mem struct{}

func (mem) Ping(string) error { return nil }
func (mem) Name() string      { return "mem" }

type node struct {
	mu   sync.Mutex
	lk   sync.Locker
	opt  optMutex
	pred string
}

// optMutex is a mutex the host may leave out; its methods make it a
// sync.Locker, so a call to them locks like the mutex it wraps.
type optMutex struct{ mu *sync.Mutex }

func (o optMutex) Lock() {
	if o.mu != nil {
		o.mu.Lock()
	}
}

func (o optMutex) Unlock() {
	if o.mu != nil {
		o.mu.Unlock()
	}
}

// badHeld keeps the node's lock across the peer call: a dead peer would
// stretch the critical section to the RPC timeout.
func (n *node) badHeld(p Peers) error {
	n.mu.Lock() // want `held across network I/O \(Ping → client\.Ping`
	defer n.mu.Unlock()
	return p.Ping(n.pred)
}

// badLocker is the same mistake through an injected sync.Locker.
func (n *node) badLocker(p Peers) {
	n.lk.Lock() // want `held across network I/O`
	p.Ping(n.pred)
	n.lk.Unlock()
}

// badWrapped is the same mistake through a wrapper that is a sync.Locker.
func (n *node) badWrapped(p Peers) {
	n.opt.Lock() // want `held across network I/O`
	p.Ping(n.pred)
	n.opt.Unlock()
}

// goodWrapped releases the wrapper before the call.
func (n *node) goodWrapped(p Peers) {
	n.opt.Lock()
	pred := n.pred
	n.opt.Unlock()
	p.Ping(pred)
}

// goodSnapshot is the discipline: snapshot, unlock, call, relock.
func (n *node) goodSnapshot(p Peers) {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	if p.Ping(pred) != nil {
		n.mu.Lock()
		n.pred = ""
		n.mu.Unlock()
	}
}

// goodNoIO calls an interface method no implementation does I/O in.
func (n *node) goodNoIO(p Peers) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return p.Name()
}

var _ Peers = mem{}
