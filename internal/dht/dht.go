// Package dht defines the structured-overlay abstraction that Distributed
// Hash Sketches build on. The paper's design is deliberately DHT-agnostic:
// DHS needs only the primitives below — routed lookups with measurable hop
// counts, successor/predecessor walks for the counting algorithm's retry
// phase, and a place on each node to keep application state. Any overlay
// conforming to this interface (Chord, Pastry, Kademlia, ...) can host a
// DHS; the repository ships a Chord-like implementation in package chord.
//
// Identifiers are uint64 on a ring that wraps around, so every overlay's
// identifier length L is 64, as in the paper's MD4 setup. Overlay is the
// one interface, and its methods fall in three groups:
//
//   - What DHS calls: RandomNode picks an originator; RouteFrom reaches
//     a key's owner; Successor and Predecessor step the counting walk;
//     SuccessorList lets that walk step past a dead successor; Converged
//     flags an estimate counted while repairs were pending; Nodes and
//     Size serve replica repair and the adaptive budget.
//   - Ground truth at zero cost, for tests and experiments: Owner.
//   - Hooks for the fault model and the protocol: Crash injects a
//     crash-stop death, Step runs the repair rounds that have come due.
//
// An overlay whose routing state is repaired atomically at every
// membership change answers the protocol half trivially: RouteFrom never
// counts a stale hop, SuccessorList is nil (so the walk re-enters the
// interval instead), Step does nothing and Converged is always true.
package dht

import (
	"errors"
	"sync/atomic"
)

// ErrNoRoute is returned when a lookup cannot complete, e.g. because the
// overlay is empty or routing exceeded its hop budget.
var ErrNoRoute = errors.New("dht: no route to key")

// ErrNodeDown is returned by operations addressed to a failed node.
var ErrNodeDown = errors.New("dht: node is down")

// ErrTimeout is returned when a message exchange exceeds the failure
// model's timeout — typically a slow or overloaded node. The request may
// or may not have been processed; DHS operations treat it like a lost
// message and retry elsewhere.
var ErrTimeout = errors.New("dht: operation timed out")

// ErrLost is returned when a message (request or reply) is dropped in
// transit by a lossy network.
var ErrLost = errors.New("dht: message lost")

// Class is what a failure was: the sentinel above an error wraps, none
// for a nil error, other for any other. ClassOf decides it, and every
// reader — a trace event, the ring protocol's error frame, whose byte is
// byte(class), and the transport's failure counters — reads the class
// instead of testing the sentinels itself.
type Class uint8

const (
	ClassNone    Class = iota // a nil error: the step succeeded
	ClassNoRoute              // ErrNoRoute
	ClassDown                 // ErrNodeDown
	ClassTimeout              // ErrTimeout
	ClassLost                 // ErrLost
	ClassOther                // an error that wraps no sentinel
)

var (
	classErrs  = [...]error{ClassNoRoute: ErrNoRoute, ClassDown: ErrNodeDown, ClassTimeout: ErrTimeout, ClassLost: ErrLost}
	classNames = [...]string{ClassNoRoute: "no-route", ClassDown: "down", ClassTimeout: "timeout", ClassLost: "lost", ClassOther: "other"}
)

// ClassOf returns the class of err.
func ClassOf(err error) Class {
	if err == nil {
		return ClassNone
	}
	for c := ClassNoRoute; c < ClassOther; c++ {
		if errors.Is(err, classErrs[c]) {
			return c
		}
	}
	return ClassOther
}

// String returns the class's trace name: empty for ClassNone, "unknown"
// past ClassOther.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// Err returns the sentinel c stands for, or nil for a class that stands
// for none: ClassNone, ClassOther and any value past it.
func (c Class) Err() error {
	if int(c) < len(classErrs) {
		return classErrs[c]
	}
	return nil
}

// Counters records per-node load, used to verify the paper's constraint 3
// (access and storage load balancing). Its fields are sync/atomic values
// behind the Add* methods, so concurrent counting passes may meter
// against the same node, and go vet's copylocks check rejects a copy of
// a live record; read it through Snapshot.
type Counters struct {
	routed, probed, storeOps atomic.Int64
}

// Load is a snapshot of a node's Counters.
type Load struct {
	Routed   int64 // times this node forwarded a routed message
	Probed   int64 // times this node answered a DHS probe
	StoreOps int64 // times this node handled a DHS store/refresh
}

// AddRouted atomically counts one forwarded routed message.
func (c *Counters) AddRouted() { c.routed.Add(1) }

// AddProbed atomically counts one answered DHS probe.
func (c *Counters) AddProbed() { c.probed.Add(1) }

// AddStoreOps atomically counts one handled DHS store/refresh.
func (c *Counters) AddStoreOps() { c.storeOps.Add(1) }

// Snapshot returns the counters' values, each field read atomically.
func (c *Counters) Snapshot() Load {
	return Load{
		Routed:   c.routed.Load(),
		Probed:   c.probed.Load(),
		StoreOps: c.storeOps.Load(),
	}
}

// Node is one overlay node as seen by the application layer.
type Node interface {
	// ID returns the node's identifier in the overlay's ID space.
	ID() uint64

	// Alive reports whether the node is currently up.
	Alive() bool

	// App returns the application state attached to the node (nil until
	// SetApp is called). DHS attaches its per-node tuple store here.
	App() any

	// SetApp attaches application state to the node.
	SetApp(state any)

	// Counters returns the node's mutable load counters.
	Counters() *Counters
}

// Route reports one routed lookup's outcome: the node reached, the
// overlay hops the route consumed, and how many of those hops were
// wasted on stale routing entries (dead successors or fingers discovered
// by timeout and routed around; always zero on atomically repaired
// state). Callers attribute the stale hops to routing-table staleness
// (Quality.StaleRetries in the counting layer).
type Route struct {
	Node  Node
	Hops  int
	Stale int
}

// Overlay is the structured peer-to-peer network DHS runs over.
type Overlay interface {
	// Size returns the number of live nodes N.
	Size() int

	// Nodes returns a snapshot of the live nodes in ID order.
	Nodes() []Node

	// RandomNode returns a uniformly chosen live node, typically the
	// originator of an insertion or counting operation.
	RandomNode() Node

	// Owner returns the live node responsible for key — the key's
	// clockwise successor — without simulating any routing. Callers use
	// it as ground truth; it costs no hops.
	Owner(key uint64) (Node, error)

	// RouteFrom routes to the owner of key starting at src and reports
	// the node reached, the overlay hops traversed and how many of them
	// were wasted on stale routing entries. The caller is responsible
	// for accounting the hops against its traffic meter; a failed route
	// still reports the hops it consumed.
	RouteFrom(src Node, key uint64) (Route, error)

	// Successor returns the live node immediately following n on the
	// ring; reaching it costs one hop (the counting algorithm's retry
	// step).
	Successor(n Node) (Node, error)

	// Predecessor returns the live node immediately preceding n.
	Predecessor(n Node) (Node, error)

	// SuccessorList returns n's believed successors in ring order —
	// possibly including dead entries the protocol has not yet pruned —
	// at zero simulated cost: it is the local list the node itself would
	// consult, not a network operation. The counting walk falls back
	// through it past a failed successor. Nil when the overlay keeps no
	// list to fall back through.
	SuccessorList(n Node) []Node

	// Step runs every protocol round that has come due at the current
	// virtual time. Idempotent at a fixed tick; callers advance the
	// clock and Step in a loop to let the protocol make progress.
	Step()

	// Converged reports whether the overlay's protocol state is
	// quiescent: the most recent full stabilization sweep changed
	// nothing and no membership event has happened since. While false,
	// routing may traverse stale state and counting quality degrades
	// (Quality.RepairWindow).
	Converged() bool

	// Crash kills n permanently (crash-stop): it leaves the membership,
	// its application state becomes unreachable, and nothing ever
	// revives it. Distinct from transient down-windows, which end.
	Crash(n Node)
}
