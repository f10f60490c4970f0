// Package chord implements a Chord-like structured overlay (Stoica et al.
// 2001) satisfying the dht.Overlay interface: a 64-bit identifier ring
// with consistent hashing, finger-table routing in O(log N) hops, node
// join/leave/failure, and deterministic hop-count simulation.
//
// Every ring in the package routes by one rule, the protocol state
// machine of machine.go; the ring types differ only in how that state is
// repaired after a membership change. Ring repairs it atomically from the
// membership oracle, so routing always runs on post-stabilization state —
// the model under the paper's evaluation, with costs counted in overlay
// hops and payload bytes rather than wall-clock time. StabilizingRing
// (stab.go) repairs it with the protocol's own rounds.
package chord

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// fingerBits is the number of finger-table entries per node, one per
// bit of the 64-bit identifier space.
const fingerBits = 64

// dist returns the clockwise distance from a to b on the 2^64 ring.
func dist(a, b uint64) uint64 { return b - a }

// Node is one ring member, of any ring type and on either transport:
// the simulated rings' nodes and netdht.Server, which embeds one. Its
// liveness and application pointer are atomics: the counting surface
// reads both without holding a lock while protocol rounds and crash-stop
// injection mutate them. Its routing state is a Machine. What a routed
// hop reads comes first, so a hop touches few of the node's cache lines.
type Node struct {
	id       uint64
	alive    atomic.Bool
	counters dht.Counters
	app      atomic.Pointer[appBox]
	proto    Machine
	name     string
}

// appBox wraps the application state so a nil interface is storable in
// the atomic pointer.
type appBox struct{ v any }

// Init makes n a live ring of one: identifier id, hashed from name,
// reached by its transport at addr, its protocol state guarded by mu, or
// by its ring when mu is nil (see Machine). Construction only: no peer
// may reach n yet.
func (n *Node) Init(id uint64, name, addr string, cfg ProtocolConfig, mu *sync.Mutex) {
	n.id, n.name = id, name
	n.proto = Machine{self: Ref{ID: id, Addr: addr}, cfg: cfg.withDefaults(), mu: hostMutex{mu}}
	n.alive.Store(true)
}

// ID returns the node's ring identifier.
func (n *Node) ID() uint64 { return n.id }

// Name returns the label the node's identifier was hashed from.
func (n *Node) Name() string { return n.name }

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive.Load() }

// SetAlive marks the node up or down. Down is how a crash-stop reads to
// the counting surface and to the node's own request handlers.
func (n *Node) SetAlive(up bool) { n.alive.Store(up) }

// App returns the attached application state.
func (n *Node) App() any {
	if b := n.app.Load(); b != nil {
		return b.v
	}
	return nil
}

// SetApp attaches application state. Safe against concurrent App reads:
// replica repair attaches stores to new successors while counting passes
// probe the ring.
func (n *Node) SetApp(state any) { n.app.Store(&appBox{v: state}) }

// Counters returns the node's load counters.
func (n *Node) Counters() *dht.Counters { return &n.counters }

// Protocol returns the node's protocol state machine.
func (n *Node) Protocol() *Machine { return &n.proto }

// newNode creates a live node from name, with an identifier m does not
// hold yet, and splices it into m. Its self Ref carries the node itself,
// which is how the in-memory transport reaches it. Its machine has no
// mutex: each ring orders every access to protocol state itself —
// StabilizingRing with its RWMutex, Ring by never changing membership
// while anything routes. Caller holds m's write lock or is constructing
// the ring.
func newNode(m *Membership[*Node], name string) *Node {
	n := new(Node)
	n.Init(m.NewID(name), name, name, m.cfg, nil)
	n.proto.self.mem = n
	m.Add(n)
	return n
}

// populate returns a converged membership of n nodes named node-0:4000,
// node-1:4000, …, whose RandomNode draws from env's "chord" stream — so
// every ring type hosts the same ID population at equal sizes and seeds.
func populate(env *sim.Env, n int, cfg ProtocolConfig) *Membership[*Node] {
	if n <= 0 {
		panic("chord: ring needs at least one node")
	}
	m := NewMembership[*Node](cfg, env.Derive("chord"), env.Clock.Now())
	for i := 0; i < n; i++ {
		newNode(m, fmt.Sprintf("node-%d:4000", i))
	}
	m.SeedConverged()
	return m
}

// oracleConfig is the protocol configuration of a Ring's machines: one
// successor, the classic Chord successor pointer. A Ring runs no
// protocol rounds, so the periods are never read.
var oracleConfig = ProtocolConfig{SuccListLen: 1}

// Ring is a Chord overlay whose routing state is repaired from the
// membership oracle at every membership change: between changes each
// node's Machine holds exactly the state the protocol converges to at
// r = 1 (TestRepairPoliciesAgree), so Ring is the protocol, converged:
// it answers dht.Overlay's protocol hooks the way an atomically repaired
// overlay does (no stale hops, no successor list, Step a no-op, always
// converged).
//
// The routing surface (RouteFrom, Lookup, Successor, Predecessor,
// Owner, Nodes) and RandomNode are safe for concurrent use while the
// membership is stable; membership changes (Join, Fail, Revive, Crash,
// Leave, FailRandom) must not run concurrently with anything else — the
// simulation mutates the ring single-threaded and fans out only the
// counting passes. Routing therefore reads the machines without a lock.
type Ring struct {
	overlayOracle
	m   *Membership[*Node]
	env *sim.Env
}

// overlayOracle is the part of Membership's method set a Ring exposes
// as it is: the zero-cost half of dht.Overlay bar Successor, which Ring
// reads off its machines, and without SuccessorList or Converged, which
// Ring answers itself.
type overlayOracle interface {
	Size() int
	Nodes() []dht.Node
	RandomNode() dht.Node
	Owner(key uint64) (dht.Node, error)
	Predecessor(n dht.Node) (dht.Node, error)
}

// New creates a ring of n nodes with MD4-derived identifiers, simulating
// the paper's setup ("node and item IDs are 64 bits, created using MD4").
func New(env *sim.Env, n int) *Ring {
	m := populate(env, n, oracleConfig)
	return &Ring{overlayOracle: m, m: m, env: env}
}

// Env returns the simulation environment the ring accounts against.
func (r *Ring) Env() *sim.Env { return r.env }

// Lookup routes to the owner of key from a random origin node and
// returns the owner with the hop count.
func (r *Ring) Lookup(key uint64) (dht.Node, int, error) {
	src := r.RandomNode()
	if src == nil {
		return nil, 0, dht.ErrNoRoute
	}
	rt, err := r.RouteFrom(src, key)
	return rt.Node, rt.Hops, err
}

// RandomNode returns a uniformly chosen live node, drawn like
// Membership's without its read lock: the membership never changes while
// anything draws.
func (r *Ring) RandomNode() dht.Node { return r.m.draw() }

// RouteFrom routes from src to the owner of key. It is Machine.Route
// with every candidate answering: on converged state the first candidate
// of each node is its next hop, so the loop asks for one and moves
// there, and no hop is ever stale.
func (r *Ring) RouteFrom(src dht.Node, key uint64) (dht.Route, error) {
	cur, ok := src.(*Node)
	if !ok {
		return dht.Route{}, fmt.Errorf("chord: foreign node type %T", src)
	}
	if !cur.Alive() {
		return dht.Route{}, dht.ErrNodeDown
	}
	// id is cur's identifier as the Ref that led to cur carries it, and a
	// hop is counted after cur's state is read: the slot a hop reads is
	// then known before any of cur's memory arrives, and no atomic add
	// stands between the loads of one hop.
	hops, id := 0, cur.id
	for {
		c, deliver, own := cur.proto.candidate(&cursor{}, key, dist(id, key))
		if hops > 0 {
			cur.counters.AddRouted()
		}
		if own {
			return dht.Route{Node: cur, Hops: hops}, nil
		}
		if !c.Valid() || hops >= maxRouteHops {
			return dht.Route{Hops: hops}, dht.ErrNoRoute
		}
		cur, id, hops = c.mem, c.ID, hops+1
		if deliver {
			cur.counters.AddRouted()
			return dht.Route{Node: cur, Hops: hops}, nil
		}
	}
}

// Successor returns the live node immediately following n. A live
// node's machine is converged, so that is the head of its successor list
// (none on a ring of one); a failed node's is resolved against the
// oracle. The counting walk steps by Successor, so it skips the
// Membership's lock and directory lookup.
func (r *Ring) Successor(n dht.Node) (dht.Node, error) {
	cn, ok := n.(*Node)
	if !ok || !cn.Alive() {
		return r.m.Successor(n)
	}
	if succ, ok := cn.proto.Successor(); ok {
		return succ.mem, nil
	}
	return cn, nil
}

// forEachLiveIn calls fn for every live node whose ID lies in the ring
// interval [start, start+size). Iteration walks clockwise from the first
// node at or after start; the clockwise distance id−start is monotone
// along that walk, so the loop stops at the first node past the interval.
func (r *Ring) forEachLiveIn(start, size uint64, fn func(*Node)) {
	live := r.m.live
	if size == 0 || len(live) == 0 {
		return
	}
	idx := sort.Search(len(live), func(i int) bool { return live[i].id >= start })
	for k := 0; k < len(live); k++ {
		n := live[(idx+k)%len(live)]
		if n.id-start >= size {
			break
		}
		fn(n)
	}
}

// retargetFingers redirects, in every live node's table, each finger
// entry whose target identifier lies in the ring interval (lo, lo+span]
// to the node `to`. This is exactly the set of entries a single
// membership change can affect: a join of x (with predecessor p) moves
// ownership of (p, x] from x's successor to x, and a failure of x moves
// (p, x] back to the successor — no target outside that interval changes
// owner. Finger entry i of node n targets n.id + 2^i, so the affected
// nodes for each i are those with id ∈ (lo−2^i, lo−2^i+span] — found by
// one binary search per bit. Cost is O(64 · (log N + changed entries))
// per membership event instead of a full reseed's O(N · 64 · log N).
func (r *Ring) retargetFingers(lo, span uint64, to *Node) {
	if span == 0 {
		return
	}
	ref := to.proto.Self()
	for i := 0; i < fingerBits; i++ {
		step := uint64(1) << uint(i)
		// n.id + 2^i ∈ (lo, lo+span] ⇔ n.id ∈ [lo−2^i+1, lo−2^i+span].
		r.forEachLiveIn(lo-step+1, span, func(n *Node) {
			n.proto.fingers.set(i, ref)
		})
	}
}

// repair restores the converged state after a membership change at
// identifier id — a join or revive of the node holding it, or a failure
// of that node. The range (p, id] between id's live predecessor p and id
// has a new owner, the live owner of id now; finger entries targeting it
// are redirected there, and that owner and its two neighbours — the only
// nodes whose predecessor or successor moved — are seeded afresh.
// Caller holds the membership's write lock.
func (r *Ring) repair(id uint64) {
	m := r.m
	if len(m.live) == 0 {
		return
	}
	i := m.ownerIndex(id)
	pred := m.live[(i-1+len(m.live))%len(m.live)]
	r.retargetFingers(pred.id, id-pred.id, m.live[i])
	for j := i - 1; j <= i+1; j++ {
		m.seedAt(j)
	}
}

// Join adds a new node with the given name and returns it. Finger
// maintenance is incremental: only the entries whose target falls in the
// joiner's new ownership range are touched.
func (r *Ring) Join(name string) dht.Node {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	n := newNode(r.m, name)
	r.repair(n.id)
	return n
}

// Fail marks the node down and removes it from the live ring. Its stored
// application state becomes unreachable, exactly like an abrupt crash;
// soft-state refresh or replication must recover the data. Finger
// maintenance is incremental: entries that pointed into the dead node's
// range are redirected to its successor.
func (r *Ring) Fail(n dht.Node) {
	cn, ok := n.(*Node)
	if !ok || !cn.Alive() {
		return
	}
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	cn.alive.Store(false)
	i := m.ownerIndex(cn.id)
	m.live = append(m.live[:i], m.live[i+1:]...)
	r.repair(cn.id)
}

// Revive brings a previously failed node back with empty application
// state (a crash loses the soft state).
func (r *Ring) Revive(n dht.Node) {
	cn, ok := n.(*Node)
	if !ok || cn.Alive() {
		return
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	cn.alive.Store(true)
	cn.app.Store(nil)
	r.m.Add(cn)
	r.repair(cn.id)
}

// Leave removes the node gracefully. In this simulation graceful departure
// and failure differ only in intent; handoff of soft state is the DHS
// layer's job via refresh.
func (r *Ring) Leave(n dht.Node) {
	r.Fail(n)
}

// Crash removes the node permanently. On a ring whose routing state
// repairs atomically at membership-change time, crash-stop and fail-stop
// coincide; a caller honoring crash-stop semantics must never Revive a
// crashed node.
func (r *Ring) Crash(n dht.Node) {
	r.Fail(n)
}

// SuccessorList is nil: the list a live node keeps at r = 1 is its
// successor alone, which Successor already names, so the counting walk
// has nothing to fall back through and re-enters the interval instead.
// A list here would let the walk step past a drop faultdht injects, and
// E12F's table would move (TestRingListsNoFallback).
func (r *Ring) SuccessorList(dht.Node) []dht.Node { return nil }

// Step does nothing: the ring repairs at every membership change, so no
// protocol round is ever due.
func (r *Ring) Step() {}

// Converged is always true: between membership changes the ring holds
// the state the protocol converges to.
func (r *Ring) Converged() bool { return true }

// FailRandom fails k distinct random live nodes and returns them.
func (r *Ring) FailRandom(k int) []dht.Node {
	k = min(k, r.Size())
	out := make([]dht.Node, 0, k)
	for i := 0; i < k; i++ {
		n := r.RandomNode()
		out = append(out, n)
		r.Fail(n)
	}
	return out
}
