package netdht

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dhsketch/internal/chord"
)

// segment is one arc (lo, owner.ID] of the identifier circle; lo ==
// owner.ID is the whole circle: a ring of one's (Server.near), or an
// inherited arc (rpcProber.reroute).
type segment struct {
	lo    uint64
	owner chord.Ref
}

// covers reports whether id lies on the arc: at 1 … owner.ID−lo from lo,
// less one on both sides so that a zero width wraps to every distance.
func (s segment) covers(id uint64) bool { return id-s.lo-1 <= s.owner.ID-s.lo-1 }

// meets reports whether the arc shares a point with [lo, lo+size): two
// arcs of a circle do when one holds the other's first point.
func (s segment) meets(lo, size uint64) bool { return s.covers(lo) || s.lo+1-lo < size }

// ringView is what a Client remembers of the ring for as long as it lives:
// the arcs its lookups' replies spelled out, sorted by owner, so that a
// counting scan routes only the targets none of them covers — none at all,
// on a ring that has not changed since the last scan. Nothing in it
// expires. An arc is only ever relied on together with a probe of its
// owner, and that probe's reply says where the owner's arc starts today
// (confirm): a stale arc is corrected by the first scan that touches it,
// at the price of the one exchange that found out.
//
// The mutex orders the scans of concurrent Counts. Every method is a few
// comparisons over the slice; none is held across an RPC.
type ringView struct {
	mu   sync.Mutex
	arcs []segment
}

// search finds id's place among the owners. The caller holds mu.
func (v *ringView) search(id uint64) (int, bool) {
	return slices.BinarySearchFunc(v.arcs, id, func(s segment, id uint64) int { return cmp.Compare(s.owner.ID, id) })
}

// put records an arc as its owner or the ring has just stated it. The
// statement replaces every entry whose node the arc covers: the owner's old
// one, and those of nodes that have left from in front of it. The caller
// holds mu.
func (v *ringView) put(arc segment) {
	v.arcs = slices.DeleteFunc(v.arcs, func(s segment) bool { return arc.covers(s.owner.ID) })
	i, _ := v.search(arc.owner.ID)
	v.arcs = slices.Insert(v.arcs, i, arc)
}

// size is the number of arcs remembered.
func (v *ringView) size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.arcs)
}

// resolve returns the arc of the first known node at or after target, and
// reports whether it reaches back far enough to cover target.
func (v *ringView) resolve(target uint64) (arc segment, covered bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.arcs) == 0 {
		return segment{}, false
	}
	i, _ := v.search(target)
	arc = v.arcs[i%len(v.arcs)]
	return arc, arc.covers(target)
}

// arc returns what the view holds of the node with this identifier.
func (v *ringView) arc(id uint64) (segment, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	i, known := v.search(id)
	if !known {
		return segment{}, false
	}
	return v.arcs[i], true
}

// learn adds the arcs one routed reply's neighbourhood spells out — (pred,
// owner], (owner, s₀], (s₀, s₁], … — each replacing, as put has it, what
// earlier replies said of the nodes on it. An owner that names itself its
// predecessor, a ring of one (Server.near), answers for the whole circle.
func (v *ringView) learn(f chord.Found) {
	if f.Near == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if pred := f.Near.Pred; pred.Valid() { // an unknown one leaves the owner's arc unknown
		v.put(segment{lo: pred.ID, owner: f.Owner})
	}
	prev := f.Owner
	for _, n := range f.Near.Succ {
		if prev.ID != n.ID { // a reply that repeats a node spells out no arc
			v.put(segment{lo: prev.ID, owner: n})
		}
		prev = n
	}
}

// set records an arc for owner as learn would.
func (v *ringView) set(lo uint64, owner chord.Ref) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.put(segment{lo: lo, owner: owner})
}

// drop forgets a node.
func (v *ringView) drop(id uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.arcs = slices.DeleteFunc(v.arcs, func(s segment) bool { return s.owner.ID == id })
}

// confirm folds in owner's own word, from a probe reply, on where its arc
// starts, and reports whether the arc holds target. The word replaces what
// the view remembered (put): a shorter arc leaves the identifiers in front
// of it to a node the view has yet to hear of; a longer one swallows the
// entries now inside it, and a start at the owner's own identifier is the
// whole circle. An owner that cannot say (known is false) keeps no arc at
// all, as learn gives none to an owner whose predecessor is unknown.
func (v *ringView) confirm(owner chord.Ref, lo uint64, known bool, target uint64) bool {
	if !known {
		v.drop(owner.ID)
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	arc := segment{lo: lo, owner: owner}
	v.put(arc)
	return arc.covers(target)
}

// Arc is one remembered arc as dhsd's /statusz shows it: the node at Addr
// answers for the identifiers behind From up to ID, both 16 hex digits.
type Arc struct {
	From string `json:"from"`
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// View snapshots the arcs the client's counting scans start from, in
// identifier order.
func (c *Client) View() []Arc {
	c.view.mu.Lock()
	defer c.view.mu.Unlock()
	out := make([]Arc, len(c.view.arcs))
	for i, s := range c.view.arcs {
		out[i] = Arc{From: fmt.Sprintf("%016x", s.lo), ID: fmt.Sprintf("%016x", s.owner.ID), Addr: s.owner.Addr}
	}
	return out
}
