// machine.go is the Chord protocol itself: one node's state and the six
// procedures that read and repair it — the routing decision, stabilize,
// fix-fingers, check-predecessor, the notify handler and join — written
// against the Peers interface, so the simulated StabilizingRing (calls
// through shared memory, virtual clock) and netdht.Server (RPCs over
// TCP, tickers) run the same code.
//
// One rule keeps the two honest: inside this file a node learns that a
// peer is dead only from a failed Peers call. There are no liveness
// bits and no membership oracle here; the single step that may differ
// by transport is Peers.Reseed, the last resort of a node whose whole
// successor list has stopped answering.
//
// Locking: a Machine's mutex guards its own fields and is never held
// across a Peers call — every procedure snapshots, unlocks, calls, then
// relocks to write (dhslint's lockrpc checks this).
package chord

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"dhsketch/internal/dht"
)

// maxRouteHops bounds one routed lookup, hops wasted on unreachable
// peers included.
const maxRouteHops = 256

// Ref names a ring member as the protocol sees it: its identifier and
// the address its transport reaches it at (a TCP address on the wire,
// the node's name in the simulator). The zero value — empty address —
// means "no such peer".
type Ref struct {
	ID   uint64
	Addr string

	// mem is to the in-memory transport what Addr is to TCP: how it
	// reaches the node, without a directory lookup per hop. Nil on the
	// wire.
	mem *Node
}

// Valid reports whether r names a peer.
func (r Ref) Valid() bool { return r.Addr != "" }

// Neighbors is a node's answer to a stabilize exchange: who it believes
// precedes it (zero when unknown) and its successor list in ring order.
type Neighbors struct {
	Pred Ref
	Succ []Ref
}

// Found is the terminal answer of a routed lookup: the believed owner
// and what the route cost — or, with Err set, the typed failure the
// route ended in, with the cost paid until then.
type Found struct {
	Owner Ref
	Hops  int
	Stale int // hops spent discovering unreachable peers
	Err   error
	// Near is the owner's neighbourhood when the origin asked its transport
	// for it (netdht's counting scan), else nil; the protocol never reads it.
	Near *Neighbors
}

// Peers is everything a node asks of the rest of the ring. A non-nil
// error from Neighbors, Notify, Ping or FindSucc means the peer could
// not be reached — the only way the protocol learns of a death.
type Peers interface {
	// Neighbors fetches to's predecessor and successor list. The list may
	// share its array with the one the previous call returned, and is good
	// until the next call: the machine copies what it keeps.
	Neighbors(to Ref) (Neighbors, error)
	// Notify proposes self as to's predecessor; changed reports whether
	// to's state moved, which the caller folds into its own change count.
	Notify(to, self Ref) (changed bool, err error)
	// Ping checks that to still answers.
	Ping(to Ref) error
	// FindSucc hands one routing step to to, which answers through its
	// HandleFindSucc. hops and stale are the cost so far, this step
	// included; hops == 0 marks an origin contact (a joiner's bootstrap)
	// rather than a forwarded hop. A reply is terminal — Found.Err
	// carries a failure further down the route.
	FindSucc(to Ref, key uint64, hops, stale int, deliver bool) (Found, error)
	// Reseed names a successor for a node whose whole list is
	// unreachable, or the zero Ref when the transport knows none.
	Reseed(self, pred Ref) Ref
}

// Machine is one ring member's protocol state machine: predecessor,
// successor list (ring order, possibly stale), finger table and
// fix-fingers cursor. The successor list is replaced, never edited in
// place, so a slice read under the lock stays valid after unlocking.
type Machine struct {
	self Ref
	cfg  ProtocolConfig

	// mu guards the fields below. The host supplies it: a server's own
	// mutex, or nothing where a coarser lock already orders every access.
	mu         sync.Locker
	pred       Ref
	succ       []Ref
	fingers    fingerTable
	nextFinger int
}

// NewMachine returns a ring of one: no predecessor, no successors. mu
// guards the state; the machine never holds it across a Peers call.
func NewMachine(self Ref, cfg ProtocolConfig, mu sync.Locker) *Machine {
	return &Machine{self: self, cfg: cfg.withDefaults(), mu: mu}
}

// Self returns the node's own reference.
func (n *Machine) Self() Ref { return n.self }

// Seed installs protocol state directly — how a ring is constructed
// already converged.
func (n *Machine) Seed(pred Ref, succ []Ref, fingers [fingerBits]Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pred = pred
	n.succ = slices.Clone(succ)
	n.fingers.load(&fingers)
}

// State returns a copy of the protocol state.
func (n *Machine) State() (pred Ref, succ []Ref, fingers [fingerBits]Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred, slices.Clone(n.succ), n.fingers.expand()
}

// Fingers returns the finger table, one entry per slot.
func (n *Machine) Fingers() [fingerBits]Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fingers.expand()
}

// Successor returns the head of the believed successor list.
func (n *Machine) Successor() (Ref, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.succ) == 0 {
		return Ref{}, false
	}
	return n.succ[0], true
}

// Neighbors returns the believed predecessor and successor list — the
// node's answer to a peer's stabilize exchange, and local state read at
// no network cost. The caller must not modify the list.
func (n *Machine) Neighbors() Neighbors {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Neighbors{Pred: n.pred, Succ: n.succ}
}

func hasID(list []Ref, id uint64) bool {
	return slices.ContainsFunc(list, func(r Ref) bool { return r.ID == id })
}

// notIn returns the members of list that old does not hold.
func notIn(old, list []Ref) (out []Ref) {
	for _, e := range list {
		if !hasID(old, e.ID) {
			out = append(out, e)
		}
	}
	return out
}

// Known returns the Ref this node holds for id — itself, its predecessor,
// a successor or a finger — when that Ref's address is addr, so that a
// transport decoding a peer it already knows reuses the address string
// rather than copying the frame's bytes. A peer heard of at another address
// is not known, and the lookup reads only the state the node holds now.
func (n *Machine) Known(id uint64, addr []byte) (Ref, bool) {
	is := func(r Ref) bool { return r.ID == id && r.Addr == string(addr) }
	n.mu.Lock()
	defer n.mu.Unlock()
	if is(n.self) {
		return n.self, true
	}
	if is(n.pred) {
		return n.pred, true
	}
	for _, list := range [2][]Ref{n.succ, n.fingers.refs} {
		if i := slices.IndexFunc(list, is); i >= 0 {
			return list[i], true
		}
	}
	return Ref{}, false
}

// listBehind appends to dst this node's successor list from successor s
// and s's own list: s first, then s's successors up to SuccListLen,
// without this node and without repeats.
func (n *Machine) listBehind(dst []Ref, s Ref, behind []Ref) []Ref {
	list := append(dst[:0], s)
	for _, e := range behind {
		if len(list) >= n.cfg.SuccListLen {
			break
		}
		if e.ID != n.self.ID && !hasID(list, e.ID) {
			list = append(list, e)
		}
	}
	return list
}

// HandleFindSucc answers one routing step that reached this node: the
// sender's believed owner answers for itself, anyone else keeps routing.
func (n *Machine) HandleFindSucc(p Peers, key uint64, hops, stale int, deliver bool) Found {
	if deliver {
		return Found{Owner: n.self, Hops: hops, Stale: stale}
	}
	return n.Route(p, key, hops, stale)
}

// Route makes this node's routing decision for key, with hops and stale
// accumulated so far, and drives the rest of the route through p:
//
//   - if this node owns the key (identifier match, known (pred, self]
//     range, or an empty successor list — a ring of one), answer self;
//   - if the key lies within the successor list, deliver to the first
//     reachable entry that covers it — successor distances grow along
//     the list, so the covering entries are a suffix: the believed owner
//     and its backups;
//   - otherwise, or when no covering entry answers, forward to the
//     closest preceding reachable finger, then to the successor-list
//     entries that precede the key.
//
// Every candidate that cannot be reached costs the discovery timeout —
// one hop, one stale — and nothing else. Each forward moves strictly
// clockwise toward the key without passing it, so routing terminates;
// maxRouteHops additionally bounds what stale entries can cost.
func (n *Machine) Route(p Peers, key uint64, hops, stale int) Found {
	dKey := dist(n.self.ID, key)
	for cur := (cursor{}); ; {
		c, deliver, own := n.candidate(&cur, key, dKey)
		if own {
			return Found{Owner: n.self, Hops: hops, Stale: stale}
		}
		if !c.Valid() || hops >= maxRouteHops {
			return Found{Hops: hops, Stale: stale, Err: dht.ErrNoRoute}
		}
		f, err := p.FindSucc(c, key, hops+1, stale, deliver)
		if err == nil {
			return f
		}
		hops++
		stale++
	}
}

// cursor is a position in Route's candidate order: the phase (covering
// successors, preceding fingers, preceding successors) and the index
// within it.
type cursor struct{ phase, i int }

// candidate returns the next peer Route should try, whether that peer is
// the believed owner (deliver), or own when this node answers for the
// key itself; the zero Ref when the candidates are exhausted. It is the
// only place the routing order is written down, and it reads the live
// state under the node's lock, one candidate per call.
func (n *Machine) candidate(cur *cursor, key, dKey uint64) (c Ref, deliver, own bool) {
	self := n.self.ID
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur.phase == 0 {
		if cur.i == 0 {
			if dKey == 0 || len(n.succ) == 0 {
				return Ref{}, false, true
			}
			if p := n.pred; p.Valid() && p.ID != self {
				if d := dist(p.ID, key); d > 0 && d <= dist(p.ID, self) {
					return Ref{}, false, true
				}
			}
		}
		for cur.i < len(n.succ) {
			sc := n.succ[cur.i]
			cur.i++
			if sc.ID != self && dKey <= dist(self, sc.ID) {
				return sc, true, false
			}
		}
		cur.phase, cur.i = 1, bits.Len64(dKey-1)
	}
	if cur.phase == 1 {
		// Slot by slot from the top, but a finger that does not qualify
		// is passed over with its whole run: a finger qualifies or not
		// whichever slot holds it, so one that does is offered once per
		// slot it fills, and each offer can cost a stale hop.
		for cur.i--; cur.i >= 0; cur.i-- {
			f, first := n.fingers.get(cur.i)
			if f.Valid() && f.ID != self && dist(self, f.ID) < dKey {
				return f, false, false
			}
			cur.i = first
		}
		cur.phase, cur.i = 2, 0
	}
	for cur.i < len(n.succ) {
		sc := n.succ[cur.i]
		cur.i++
		if sc.ID != self && dist(self, sc.ID) < dKey {
			return sc, false, false
		}
	}
	return Ref{}, false, false
}

// Stabilize runs one stabilize/notify round: skip successor-list heads
// that no longer answer, adopt the successor's predecessor when it sits
// in between, rebuild the list from the successor's, and notify it.
// changes counts what the round altered here or at the notified peer —
// zero means a quiescent neighbourhood. gained lists the members the
// list did not hold before the round, for a replica-repair consumer.
func (n *Machine) Stabilize(p Peers) (changes int, gained []Ref) {
	n.mu.Lock()
	pred, old := n.pred, n.succ
	n.mu.Unlock()
	if len(old) == 0 {
		return 0, nil // a ring of one has nothing to stabilize
	}
	var s Ref
	var nb Neighbors
	for _, sc := range old {
		resp, err := p.Neighbors(sc)
		if err != nil {
			changes++ // a dead head, discovered by timeout
			continue
		}
		s, nb = sc, resp
		break
	}
	if !s.Valid() {
		// Every known successor is unreachable: take whatever the
		// transport can offer and retry from there next round.
		var list []Ref
		if seed := p.Reseed(n.self, pred); seed.Valid() && seed.ID != n.self.ID {
			list = []Ref{seed}
		}
		n.mu.Lock()
		n.succ = list
		n.mu.Unlock()
		return changes + 1, notIn(old, list)
	}
	// The list is built on the stack before the next call, which may reuse
	// the array the transport decoded nb.Succ into, and replaces the node's
	// only when it differs: a quiet round allocates nothing.
	var room [8]Ref
	list := n.listBehind(room[:0], s, nb.Succ)
	if c := nb.Pred; c.Valid() && c.ID != n.self.ID && c.ID != s.ID &&
		dist(n.self.ID, c.ID) < dist(n.self.ID, s.ID) {
		// A node joined between us and our successor: adopt it.
		if resp, err := p.Neighbors(c); err == nil {
			s = c
			list = n.listBehind(list, s, resp.Succ)
			changes++
		}
	}
	n.mu.Lock()
	moved := !slices.Equal(n.succ, list)
	if moved {
		n.succ = slices.Clone(list)
	}
	n.fingers.set(0, s)
	n.mu.Unlock()
	if moved {
		changes++
		gained = notIn(old, list)
	}
	if adopted, err := p.Notify(s, n.self); err == nil && adopted {
		changes++
	}
	return changes, gained
}

// HandleNotify is the receiving side of Stabilize's notify: from
// proposes itself as predecessor. It is adopted when no predecessor is
// known or from sits closer — a dead predecessor is not replaced here
// but by CheckPredecessor clearing it first. A ring of one learns its
// first peer this way: from becomes successor too.
func (n *Machine) HandleNotify(from Ref) (changed bool) {
	if from.ID == n.self.ID {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.pred.Valid() ||
		(n.pred.ID != from.ID && dist(n.pred.ID, from.ID) < dist(n.pred.ID, n.self.ID)) {
		n.pred = from
		changed = true
	}
	if len(n.succ) == 0 {
		n.succ = []Ref{from}
		n.fingers.set(0, from)
		changed = true
	}
	return changed
}

// FixFingers refreshes the next fingersPerRound finger entries by
// routing to each entry's target, and returns how many it repointed. A
// failed route leaves the entry for the next cycle.
func (n *Machine) FixFingers(p Peers) (changes int) {
	for j := 0; j < fingersPerRound; j++ {
		n.mu.Lock()
		i := n.nextFinger
		n.nextFinger = (i + 1) % fingerBits
		n.mu.Unlock()
		f := n.Route(p, n.self.ID+uint64(1)<<uint(i), 0, 0)
		if f.Err != nil {
			continue
		}
		n.mu.Lock()
		if n.fingers.set(i, f.Owner) {
			changes++
		}
		n.mu.Unlock()
	}
	return changes
}

// CheckPredecessor clears a predecessor that no longer answers, so the
// next notify can install a live one; it returns the reference it
// cleared, or the zero Ref.
func (n *Machine) CheckPredecessor(p Peers) (cleared Ref) {
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	if !pred.Valid() || p.Ping(pred) == nil {
		return Ref{}
	}
	n.mu.Lock()
	if n.pred == pred {
		n.pred = Ref{}
	}
	n.mu.Unlock()
	return pred
}

// Join links a fresh node into the ring reachable at boot: route to our
// own identifier to find our successor, adopt its successor list, point
// every finger at it, and notify it. The rest of the ring learns about
// us through its stabilize rounds. It returns the successor joined
// behind.
func (n *Machine) Join(p Peers, boot Ref) (Ref, error) {
	f, err := p.FindSucc(boot, n.self.ID, 0, 0, false)
	if err == nil {
		err = f.Err
	}
	s := f.Owner
	if err != nil {
		if s = p.Reseed(n.self, Ref{}); !s.Valid() {
			return Ref{}, err
		}
	}
	if s.ID == n.self.ID {
		return Ref{}, fmt.Errorf("chord: identifier collision with %s", s.Addr)
	}
	nb, err := p.Neighbors(s)
	if err != nil {
		return Ref{}, fmt.Errorf("successor %s: %w", s.Addr, err)
	}
	list := n.listBehind(nil, s, nb.Succ)
	n.mu.Lock()
	n.succ = list
	n.fingers.fill(s)
	n.mu.Unlock()
	if _, err := p.Notify(s, n.self); err != nil {
		return Ref{}, fmt.Errorf("notify %s: %w", s.Addr, err)
	}
	return s, nil
}
