// stab.go is the simulated protocol-level Chord overlay: the same nodes
// and machines as Ring, but instead of repairing them from the oracle at
// every membership change, each node's successor list, predecessor
// pointer and finger table are repaired after joins and crash-stop
// failures by periodic stabilize / fix-fingers / check-predecessor rounds
// (Stoica et al. 2001 §E) — over the in-memory transport below, on the
// deterministic simulation clock, never the wall clock. This file holds
// only what is the simulator's: the protocol config and schedule, the
// transport with its metering, and the ring that drives rounds. Between
// a membership event and convergence, routing traverses stale entries:
// dead successors and fingers are discovered by timeout, cost hops, and
// are routed around via the successor list. That transient is exactly
// what the churn experiment (e15) measures.
package chord

import (
	"math/rand/v2"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
)

// protoMsgBytes is the wire size of one stabilization protocol message
// under the §5.1 size model: a header plus one node identifier.
const protoMsgBytes = 16

// DefaultSuccListLen is the default successor-list length r.
const DefaultSuccListLen = 4

// ProtocolConfig shapes the stabilization protocol. The zero value takes
// the defaults below; all periods are in sim.Clock ticks.
type ProtocolConfig struct {
	// SuccListLen is r, the successor-list length — the number of node
	// failures in a row a node can route around without repair.
	SuccListLen int
	// StabilizeEvery is the period of the stabilize/notify sweep.
	StabilizeEvery int64
	// FixFingersEvery is the period of the finger-repair sweep.
	FixFingersEvery int64
	// CheckPredEvery is the period of the check-predecessor sweep.
	CheckPredEvery int64
}

// RoundSet is a bitmask naming which protocol rounds are due at a tick.
type RoundSet uint8

const (
	// RoundStabilize is the stabilize/notify sweep.
	RoundStabilize RoundSet = 1 << iota
	// RoundFixFingers is the finger-repair sweep.
	RoundFixFingers
	// RoundCheckPred is the check-predecessor sweep.
	RoundCheckPred
)

// Has reports whether round r is in the set.
func (s RoundSet) Has(r RoundSet) bool { return s&r != 0 }

// WithDefaults returns the config with zero fields replaced by the
// package defaults — the exported form of the normalization every
// constructor applies, for callers (netdht) that schedule rounds
// themselves and need the effective periods.
func (c ProtocolConfig) WithDefaults() ProtocolConfig { return c.withDefaults() }

// DueAt reports which protocol rounds fire at tick t under this
// (already defaulted) config. It is the single source of the protocol
// cadence: the simulated StabilizingRing.Step and netdht's wall-clock
// maintenance loop both derive their schedule from it, so the two
// clock domains run the same rounds at the same relative times. The
// tick unit is whatever the caller's clock counts — sim.Clock ticks in
// the simulator, ticker fires in the networked overlay.
func (c ProtocolConfig) DueAt(t int64) RoundSet {
	var due RoundSet
	if c.StabilizeEvery > 0 && t%c.StabilizeEvery == 0 {
		due |= RoundStabilize
	}
	if c.FixFingersEvery > 0 && t%c.FixFingersEvery == 0 {
		due |= RoundFixFingers
	}
	if c.CheckPredEvery > 0 && t%c.CheckPredEvery == 0 {
		due |= RoundCheckPred
	}
	return due
}

func (c ProtocolConfig) withDefaults() ProtocolConfig {
	if c.SuccListLen == 0 {
		c.SuccListLen = DefaultSuccListLen
	}
	if c.StabilizeEvery == 0 {
		c.StabilizeEvery = 8
	}
	if c.FixFingersEvery == 0 {
		c.FixFingersEvery = 8
	}
	if c.CheckPredEvery == 0 {
		c.CheckPredEvery = 16
	}
	return c
}

// fingersPerRound is how many finger entries each node refreshes per
// fix-fingers sweep (the classic fix_fingers refreshes one; batching
// trades per-round cost for convergence time).
const fingersPerRound = 16

// fingerCycle is the number of fix-fingers sweeps that cover a node's
// full table — the streak of clean sweeps convergence requires.
const fingerCycle = (fingerBits + fingersPerRound - 1) / fingersPerRound

// SettleWindow is a generous upper bound, in ticks, on how long the
// protocol needs to reconverge after a burst of membership events:
// successor-list repair propagates one node per stabilize round, and
// convergence additionally requires a full clean fix-fingers cycle.
func (c ProtocolConfig) SettleWindow(events int) int64 {
	rounds := int64(events+2) * c.StabilizeEvery
	fingers := int64(fingerCycle+1) * c.FixFingersEvery
	return rounds + fingers + c.CheckPredEvery
}

// ProtoStats counts the stabilization protocol's work and traffic.
// Protocol maintenance is metered here, not in the environment's Traffic
// record, so experiment measurements of data-plane operations (inserts,
// counts, repair transfers) stay comparable with Ring's.
type ProtoStats struct {
	StabilizeSweeps int64 // stabilize rounds executed
	SuccRepairs     int64 // successor-pointer or successor-list changes
	PredRepairs     int64 // predecessor-pointer changes (incl. notify)
	FingerFixes     int64 // finger entries repointed by fix-fingers
	Reseeds         int64 // exhausted successor lists reseeded out of band
	RepairCalls     int64 // replica-repair invocations (successor-set growth)
	Joins           int64
	Crashes         int64
	Messages        int64 // protocol messages exchanged
	Hops            int64 // overlay hops those messages traversed
	Bytes           int64 // protocol payload bytes
	Timeouts        int64 // exchanges that discovered a dead node
}

// StabilizingRing is a Chord overlay whose routing state is maintained
// by the per-node stabilization protocol instead of Ring's repair from
// the oracle. It implements dht.Overlay; the oracle half of that
// surface, SuccessorList and Converged are the embedded Membership's.
//
// Concurrency: the routing surface (RouteFrom, Successor, Predecessor, Owner, Nodes, SuccessorList, Converged) takes
// a read lock and may be used by any number of concurrent counting
// passes; protocol rounds (Step) and membership events (Join, Crash,
// Leave) take the write lock. Node liveness and application state are
// atomics, so the lock-free reads the counting layer performs against
// nodes it already holds stay race-free.
type StabilizingRing struct {
	*Membership[*Node]
	env *sim.Env

	// joinRNG draws bootstrap nodes for joins — its own derived stream,
	// so joins do not perturb RandomNode's.
	joinRNG *rand.Rand

	// repair, when set, is invoked during stabilize whenever a node's
	// successor list gains members: repair(n, added) re-replicates n's
	// application state to the new successors (core.DHS.RepairFunc).
	repair func(n dht.Node, added []dht.Node)

	// stats is guarded by the write lock: only protocol rounds and
	// membership events meter.
	stats ProtoStats

	// The two faces of the in-memory transport: protocol rounds and joins
	// call through protoPeers, which meters; data-plane routes through
	// dataPeers.
	protoPeers, dataPeers memPeers
}

// NewStabilizing creates a ring of n nodes running the stabilization
// protocol. Its nodes are built exactly like Ring's (populate), so the
// two overlays host the same ID population at equal sizes. The
// ring starts converged — every node's protocol state agrees with the
// membership — which is the state a long-running network reaches between
// churn events.
func NewStabilizing(env *sim.Env, n int, cfg ProtocolConfig) *StabilizingRing {
	r := &StabilizingRing{
		Membership: populate(env, n, cfg),
		env:        env,
		joinRNG:    env.Derive("chord-stab-join"),
	}
	r.protoPeers = memPeers{r: r, metered: true}
	r.dataPeers = memPeers{r: r}
	return r
}

// memPeers is the in-memory transport: a call reaches the named node
// through shared memory, and a call to a crashed node fails with
// dht.ErrNodeDown. It owns the protocol's traffic metering; metered is
// off for data-plane routes, which run under the read lock and are
// accounted by the layer that issued them.
type memPeers struct {
	r       *StabilizingRing
	metered bool
}

// meter accounts one protocol message into the protocol traffic record.
// Caller holds the write lock.
func (r *StabilizingRing) meter(hops, bytes int) {
	r.stats.Messages++
	r.stats.Hops += int64(hops)
	r.stats.Bytes += int64(hops) * int64(bytes)
}

// reach resolves to; an exchange with a dead node is a one-hop message
// that times out.
func (p *memPeers) reach(to Ref) (*Node, error) {
	if to.mem.alive.Load() {
		return to.mem, nil
	}
	p.r.stats.Timeouts++
	p.r.meter(1, protoMsgBytes)
	return nil, dht.ErrNodeDown
}

func (p *memPeers) Neighbors(to Ref) (Neighbors, error) {
	n, err := p.reach(to)
	if err != nil {
		return Neighbors{}, err
	}
	// One exchange: the predecessor and the successor list.
	p.r.meter(1, protoMsgBytes+8*p.r.cfg.SuccListLen)
	return n.proto.Neighbors(), nil
}

// Notify rides on the Neighbors exchange that precedes it: no message
// of its own.
func (p *memPeers) Notify(to, self Ref) (bool, error) {
	n, err := p.reach(to)
	if err != nil {
		return false, err
	}
	changed := n.proto.HandleNotify(self)
	if changed {
		p.r.stats.PredRepairs++
	}
	return changed, nil
}

// Ping costs nothing while the peer answers (liveness rides on regular
// traffic); a dead one costs the timeout.
func (p *memPeers) Ping(to Ref) error {
	_, err := p.reach(to)
	return err
}

// FindSucc meters a protocol route as one message of as many hops as it
// takes, each hop — answered or timed out — at protoMsgBytes.
func (p *memPeers) FindSucc(to Ref, key uint64, hops, stale int, deliver bool) (Found, error) {
	n := to.mem
	up := n.alive.Load()
	if p.metered && hops > 0 {
		if hops == 1 {
			p.r.stats.Messages++
		}
		p.r.stats.Hops++
		p.r.stats.Bytes += protoMsgBytes
		if !up {
			p.r.stats.Timeouts++
		}
	}
	if !up {
		return Found{}, dht.ErrNodeDown
	}
	if hops > 0 {
		n.counters.AddRouted()
	}
	return n.proto.HandleFindSucc(p, key, hops, stale, deliver), nil
}

// Reseed models an out-of-band rejoin: the oracle names the node's true
// successor. Counted — it is a protocol shortcut.
func (p *memPeers) Reseed(self, _ Ref) Ref {
	p.r.stats.Reseeds++
	return p.r.live[p.r.ownerIndex(self.ID+1)].proto.Self()
}

// traceEvent emits one protocol trace event; one nil check when tracing
// is disabled.
func (r *StabilizingRing) traceEvent(tick int64, kind obs.Kind, node uint64, arg int64) {
	t := r.env.Tracer()
	if t == nil {
		return
	}
	t.Event(obs.Event{Tick: tick, Kind: kind, Node: node, Bit: -1, Arg: arg})
}

// Env returns the simulation environment the ring accounts against.
func (r *StabilizingRing) Env() *sim.Env { return r.env }

// Stats returns a snapshot of the protocol counters.
func (r *StabilizingRing) Stats() ProtoStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// SetRepair installs the replica-repair callback invoked when a node's
// successor list gains members. Install before protocol rounds run; the
// callback executes under the ring's write lock and must not call back
// into the ring's routing surface.
func (r *StabilizingRing) SetRepair(fn func(n dht.Node, added []dht.Node)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.repair = fn
}

// RouteFrom routes to the believed owner of key starting at src,
// reporting how many hops were wasted on stale routing entries.
// Routing never consults the membership oracle: it runs
// purely on the per-node protocol state, so between a membership event
// and convergence it pays timeouts for dead successors and fingers and
// falls back through the successor list — or fails with dht.ErrNoRoute
// when no entry that could carry the key answers.
func (r *StabilizingRing) RouteFrom(src dht.Node, key uint64) (dht.Route, error) {
	cur, err := r.member(src)
	if err != nil {
		return dht.Route{}, err
	}
	if !cur.alive.Load() {
		return dht.Route{}, dht.ErrNodeDown
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.live) == 0 {
		return dht.Route{}, dht.ErrNoRoute
	}
	f := cur.proto.Route(&r.dataPeers, key, 0, 0)
	if f.Err != nil {
		return dht.Route{Hops: f.Hops, Stale: f.Stale}, f.Err
	}
	return dht.Route{Node: f.Owner.mem, Hops: f.Hops, Stale: f.Stale}, nil
}

// Join adds a new node: it bootstraps through an existing node, routes
// to its own identifier to find its successor, adopts that successor's
// list, and notifies it. The rest of the ring learns about the joiner
// through subsequent stabilize rounds — until the joiner's predecessor
// stabilizes, keys in the joiner's range still route to the old owner.
func (r *StabilizingRing) Join(name string) dht.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := newNode(r.Membership, name)
	r.stats.Joins++
	r.conv.disturb()
	if len(r.live) == 1 {
		return n
	}
	// Deterministic bootstrap draw among the pre-join members.
	idx := r.joinRNG.IntN(len(r.live))
	boot := r.live[idx]
	if boot == n {
		boot = r.live[(idx+1)%len(r.live)]
	}
	if _, err := n.proto.Join(&r.protoPeers, boot.proto.Self()); err != nil {
		// The bootstrap is alive and Reseed always answers.
		panic("chord: simulated join cannot fail")
	}
	return n
}

// Crash kills the node permanently (crash-stop): it
// leaves the membership, its store becomes unreachable, and nothing
// revives it. Other nodes' successor lists and fingers still point at
// it until protocol rounds discover the death by timeout.
func (r *StabilizingRing) Crash(n dht.Node) {
	cn, ok := n.(*Node)
	if !ok || !cn.alive.Load() {
		return
	}
	r.Remove(cn, func() {
		cn.alive.Store(false)
		r.stats.Crashes++
		r.traceEvent(r.env.Clock.Now(), obs.KindCrash, cn.id, 0)
	})
}

// Leave removes the node gracefully. At this layer graceful departure
// and crash differ only in intent; soft-state handoff is the DHS
// layer's job (replica repair plus TTL refresh).
func (r *StabilizingRing) Leave(n dht.Node) { r.Crash(n) }

// Step runs every protocol round due at the current virtual time.
// Rounds fire at fixed multiples of their periods and
// sweep nodes in ID order, so a run is bit-for-bit reproducible. While
// the ring is converged, sweeps are provably no-ops and are skipped.
func (r *StabilizingRing) Step() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conv.advance(r.env.Clock.Now(), r.cfg, r.sweep)
}

// sweep runs one protocol round on every live node, in ID order, and
// accounts what it changed. Caller holds the write lock.
func (r *StabilizingRing) sweep(t int64, round RoundSet) (changes int) {
	p := &r.protoPeers
	switch round {
	case RoundStabilize:
		r.stats.StabilizeSweeps++
		for _, n := range r.live {
			notified := r.stats.PredRepairs
			c, gained := n.proto.Stabilize(p)
			changes += c
			r.stats.SuccRepairs += int64(c) - (r.stats.PredRepairs - notified)
			r.repairTo(n, gained)
		}
		r.traceEvent(t, obs.KindStabilize, 0, int64(changes))
	case RoundFixFingers:
		for _, n := range r.live {
			changes += n.proto.FixFingers(p)
		}
		r.stats.FingerFixes += int64(changes)
	case RoundCheckPred:
		for _, n := range r.live {
			if n.proto.CheckPredecessor(p).Valid() {
				changes++
			}
		}
		r.stats.PredRepairs += int64(changes)
	}
	return changes
}

// repairTo pushes n's tuples to the successors its list just gained —
// the alive ones; a push to a dead entry would only time out, and the
// protocol prunes those itself.
func (r *StabilizingRing) repairTo(n *Node, gained []Ref) {
	if r.repair == nil {
		return
	}
	var added []dht.Node
	for _, g := range gained {
		if g.mem.alive.Load() {
			added = append(added, g.mem)
		}
	}
	if len(added) > 0 {
		r.stats.RepairCalls++
		r.repair(n, added)
	}
}

var _ dht.Overlay = (*StabilizingRing)(nil)
