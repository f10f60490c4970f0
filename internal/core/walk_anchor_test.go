package core

// Regression test for the counting walk's wrap-around anchor. Algorithm 1
// retries along successors and stops when the walk returns to the node it
// entered the interval at. After a failed step the walk re-enters the
// interval at a fresh random target; the anchor must move to the newly
// entered node. An earlier version kept the FIRST segment's anchor, so a
// later segment that merely passed that node was mistaken for a full
// wrap and the interval's remaining probe budget was abandoned — on tiny
// rings with faults this silently under-probed sparse bits.

import (
	"errors"
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// scriptNode is a minimal dht.Node for scripted-walk tests.
type scriptNode struct {
	id       uint64
	app      any
	counters dht.Counters
}

func (n *scriptNode) ID() uint64              { return n.id }
func (n *scriptNode) Alive() bool             { return true }
func (n *scriptNode) App() any                { return n.app }
func (n *scriptNode) SetApp(state any)        { n.app = state }
func (n *scriptNode) Counters() *dht.Counters { return &n.counters }

// scriptOverlay is a dht.Overlay whose lookups and successor steps follow
// a script instead of real routing, so a test can drive the counting walk
// through an exact sequence of events (including failures).
type scriptOverlay struct {
	nodes []*scriptNode // ring order

	lookupSeq   []int // node index returned by each RouteFrom call, in order
	lookupCalls int

	succFailOn map[int]bool // 1-based successor-call numbers that fail
	succCalls  int
}

var errScriptExhausted = errors.New("script exhausted")

func (o *scriptOverlay) Size() int { return len(o.nodes) }

func (o *scriptOverlay) Nodes() []dht.Node {
	out := make([]dht.Node, len(o.nodes))
	for i, n := range o.nodes {
		out[i] = n
	}
	return out
}

func (o *scriptOverlay) RandomNode() dht.Node { return o.nodes[0] }

func (o *scriptOverlay) Owner(key uint64) (dht.Node, error) { return o.nodes[0], nil }

func (o *scriptOverlay) RouteFrom(src dht.Node, key uint64) (dht.Route, error) {
	if o.lookupCalls >= len(o.lookupSeq) {
		return dht.Route{}, errScriptExhausted
	}
	n := o.nodes[o.lookupSeq[o.lookupCalls]]
	o.lookupCalls++
	return dht.Route{Node: n, Hops: 1}, nil
}

func (o *scriptOverlay) Successor(n dht.Node) (dht.Node, error) {
	o.succCalls++
	if o.succFailOn[o.succCalls] {
		return nil, dht.ErrTimeout
	}
	for i, sn := range o.nodes {
		if sn == n {
			return o.nodes[(i+1)%len(o.nodes)], nil
		}
	}
	return nil, dht.ErrNoRoute
}

func (o *scriptOverlay) Predecessor(n dht.Node) (dht.Node, error) {
	for i, sn := range o.nodes {
		if sn == n {
			return o.nodes[(i+len(o.nodes)-1)%len(o.nodes)], nil
		}
	}
	return nil, dht.ErrNoRoute
}

// The script's overlay is atomically consistent: no list to fall back
// through, nothing to repair, nothing to crash.
func (o *scriptOverlay) SuccessorList(dht.Node) []dht.Node { return nil }
func (o *scriptOverlay) Step()                             {}
func (o *scriptOverlay) Converged() bool                   { return true }
func (o *scriptOverlay) Crash(dht.Node)                    {}

func TestWalkAnchorResetsOnReentry(t *testing.T) {
	// Four nodes A, B, C, D in ring order. Script:
	//
	//   1. enter → A, probe A
	//   2. Successor(A) fails (times out) — the walk loses its footing
	//   3. re-enter → C, probe C          (anchor must move to C)
	//   4. Successor(C) → D, probe D
	//   5. Successor(D) → A: A is NOT the current segment's entry point,
	//      so the walk must probe A and keep going. The buggy version
	//      still held A as anchor and ended the interval here.
	//   6. Successor(A) → B, probe B
	//   7. Successor(B) → C == anchor: genuine wrap, stop.
	env := sim.NewEnv(1)
	overlay := &scriptOverlay{
		nodes: []*scriptNode{
			{id: 100}, {id: 200}, {id: 300}, {id: 400}, // A, B, C, D
		},
		lookupSeq:  []int{0, 2}, // first segment enters at A, second at C
		succFailOn: map[int]bool{1: true},
	}
	d, err := New(Config{Overlay: overlay, Env: env, K: 16, M: 16, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}

	// The stores are empty, so the visitor never resolves and the walk
	// runs until wrap or budget; the probed nodes are read off the trace.
	ring := obs.NewRing(64)
	rng, _ := d.countPass()
	w := &walkProber{d: d, src: overlay.nodes[0], rng: rng}
	v := &Visitor{states: []metricState{newMetricState(MetricID("anchor"), d.cfg.M)}, open: 1, tr: Trace{Sink: ring}}
	out := w.ProbeInterval(0, 16, v)
	var visited []uint64
	for _, e := range ring.Events() {
		if e.Kind == obs.KindProbe {
			visited = append(visited, e.Node)
		}
	}

	want := []uint64{100, 300, 400, 100, 200} // A, C, D, A, B
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v (stale anchor ends the walk after 3)", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
	if out.Failed != 1 {
		t.Errorf("failed steps = %d, want 1", out.Failed)
	}
	// Budget spent: 2 lookups + 1 failed successor + 4 successful
	// successor steps = 7 of the 16 allowed.
	if out.Attempted != 7 {
		t.Errorf("attempted = %d, want 7", out.Attempted)
	}
	if w.cost.NodesVisited != len(want) {
		t.Errorf("NodesVisited = %d, want %d", w.cost.NodesVisited, len(want))
	}
}
