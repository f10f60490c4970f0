package netdht

import (
	"fmt"
	"sync"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// Cluster hosts N Servers inside one process, each bound to its own
// loopback listener, and presents them as a dht.Overlay. Routed
// lookups and stabilization rounds cross real TCP sockets; only the
// surfaces the overlay contract defines as zero-cost local state — the
// membership oracle (Owner, Nodes, Predecessor), successor-list reads,
// and liveness — resolve in-process, exactly as the simulated rings
// resolve them against shared memory. The cluster therefore runs the
// same contract suite, and core.DHS runs over it unchanged: stores
// attach to Server nodes via App, and every routed operation the
// counting layer issues crosses the network.
//
// Protocol rounds are driven by Step against env.Clock — the same
// deterministic schedule (chord.ProtocolConfig.DueAt) the simulator
// uses — so tests settle the ring by advancing the virtual clock. The
// round *payloads* are real RPC exchanges; their wall-clock duration is
// not simulated.
type Cluster struct {
	// Membership is the oracle half of the overlay surface, the
	// convergence tracker and the DueAt sweep loop — the same ones the
	// simulated ring embeds.
	*chord.Membership[*Server]
	env *sim.Env

	// stepMu serializes Step drivers. It is a dedicated lock precisely so
	// the protocol rounds' RPCs never run under the membership lock:
	// concurrent readers of the oracle (Owner, RandomNode, routed
	// counting) must not queue behind a round that is busy timing out
	// against a dead peer.
	stepMu sync.Mutex
}

// Loopback transport timings: tight enough that discovering a crashed
// peer (a refused connection) costs milliseconds, generous enough that
// a loaded CI machine does not fake timeouts.
const (
	clusterDialTimeout = 500 * time.Millisecond
	clusterRPCTimeout  = 2 * time.Second
)

// NewCluster builds a ring of n servers on loopback listeners. Node
// names and identifier derivation match the simulated rings
// ("node-%d:4000", md4, re-hash on collision), so a cluster hosts the
// same ID population as a simulated ring of equal size. Like
// chord.NewStabilizing, the ring starts converged: every node's
// protocol state is pre-seeded to agree with the membership, which is
// the state a long-running deployment reaches between churn events.
func NewCluster(env *sim.Env, n int, cfg chord.ProtocolConfig) (*Cluster, error) {
	if n <= 0 {
		panic("netdht: cluster needs at least one node")
	}
	c := &Cluster{
		Membership: chord.NewMembership[*Server](cfg, env.Derive("netdht"), env.Clock.Now()),
		env:        env,
	}
	for i := 0; i < n; i++ {
		s, err := c.newServer(fmt.Sprintf("node-%d:4000", i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Add(s)
	}
	c.SeedConverged()
	for _, s := range c.Live() {
		s.markLinked()
	}
	return c, nil
}

// newServer starts a server on a loopback listener under the cluster's
// clock and timings. Identifier derivation (incl. collision re-hash) is
// the membership's, not the listener's.
func (c *Cluster) newServer(name string) (*Server, error) {
	s, err := NewServer("127.0.0.1:0", Options{
		Name:        name,
		Protocol:    c.Config(),
		DialTimeout: clusterDialTimeout,
		RPCTimeout:  clusterRPCTimeout,
		Now:         c.env.Clock.Now,
	})
	if err == nil {
		s.setID(c.NewID(name))
	}
	return s, err
}

// Join starts one more server and links it into the ring through the
// first live member, the way a daemon joins (chord.Machine.Join): its
// successor knows it at once, the membership oracle too, and the rest of
// the ring after the stabilize rounds of the Steps that follow. One joiner
// at a time.
func (c *Cluster) Join(name string) (*Server, error) {
	s, err := c.newServer(name)
	if err != nil {
		return nil, err
	}
	if err := s.Join(c.Live()[0].Addr()); err != nil {
		s.Close()
		return nil, err
	}
	c.Admit(s)
	return s, nil
}

// Servers returns the live servers in ID order.
func (c *Cluster) Servers() []*Server { return c.Live() }

// RouteFrom routes over TCP to the believed owner of key starting at
// src. The origin makes its routing decision locally
// and every subsequent decision happens on the node the request
// reached, so the hop count equals the Routed increments metered at
// the forwarded-to nodes — the same invariant the simulated rings
// uphold, here without any shared memory between the hops.
func (c *Cluster) RouteFrom(src dht.Node, key uint64) (dht.Route, error) {
	s, ok := src.(*Server)
	if !ok {
		return dht.Route{}, fmt.Errorf("netdht: foreign node type %T", src)
	}
	if !s.alive.Load() {
		return dht.Route{}, dht.ErrNodeDown
	}
	if c.Size() == 0 {
		return dht.Route{}, dht.ErrNoRoute
	}
	f := s.node.Route(&tcpPeers{s: s}, key, 0, 0)
	rt := dht.Route{Hops: f.Hops, Stale: f.Stale}
	if f.Err != nil {
		return rt, f.Err
	}
	owner, ok := c.ByID(f.Owner.ID)
	if !ok {
		return rt, fmt.Errorf("%w: route reached unknown node %016x", dht.ErrLost, f.Owner.ID)
	}
	rt.Node = owner
	return rt, nil
}

// Crash kills the server permanently (crash-stop): it
// stops answering, its listener starts refusing connections, and it
// leaves the membership oracle. Other nodes' successor lists and
// fingers still name it until protocol rounds discover the death —
// by real connection failures, not a liveness bit.
func (c *Cluster) Crash(n dht.Node) {
	s, ok := n.(*Server)
	if !ok || !s.alive.Load() {
		return
	}
	c.Remove(s, s.Close)
}

// Step runs every protocol round due at the current virtual time,
// sweeping live servers in ID order — the simulated
// ring's schedule and sweep loop, but each round's exchanges are real
// RPCs, so liveness is discovered by connection failure.
//
// The rounds run without holding the membership lock (lockrpc
// invariant, DESIGN.md §10; see chord.Membership.StepDetached). A round
// sweeping a server that crashed mid-step is safe: closed servers
// answer their rounds with an immediate no-op.
func (c *Cluster) Step() {
	//dhslint:allow lockrpc(stepMu exists to serialize Step drivers and is deliberately held across the round RPCs; no RPC handler or oracle read ever takes it)
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	c.StepDetached(c.env.Clock.Now(), sweepServers)
}

// sweepServers runs one protocol round on every server and totals the
// state changes.
func sweepServers(live []*Server, round chord.RoundSet) (changes int) {
	for _, s := range live {
		switch round {
		case chord.RoundStabilize:
			changes += s.stabilizeRound()
		case chord.RoundFixFingers:
			changes += s.fixFingersRound()
		case chord.RoundCheckPred:
			changes += s.checkPredRound()
		}
	}
	return changes
}

// Close shuts every live server down; crashed ones already are.
func (c *Cluster) Close() {
	for _, s := range c.Live() {
		c.Crash(s)
	}
}

var _ dht.Overlay = (*Cluster)(nil)
