// Package faultdht wraps any dht.Overlay in a deterministic fault-
// injection layer. The paper evaluates fault tolerance only under clean
// fail-stop crashes applied before counting (§3.5, E10); this package
// models the messier failures a deployed overlay actually sees — lossy
// links, nodes that flap in and out of reachability, and slow nodes whose
// replies miss the timeout — so the DHS layer's graceful-degradation
// paths (probe-budget accounting of failed steps, insertion retries,
// quality-annotated estimates) can be exercised and measured.
//
// All faults are derived from the simulation environment's master seed:
// the per-message drop stream comes from env.Derive, and per-node traits
// (flaky, slow, down-window phase) are pure hashes of (seed, node ID), so
// a run is bit-for-bit reproducible and a node keeps its personality
// across operations. Transient down-windows are driven by the virtual
// clock: a flaky node is unreachable for DownFor out of every DownPeriod
// ticks, at a node-specific phase.
package faultdht

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
)

// Defaults for the transient down-window duty cycle.
const (
	// DefaultDownPeriod is the length of a flaky node's duty cycle in
	// clock ticks.
	DefaultDownPeriod = 100
	// DefaultDownFor is how many ticks of each period a flaky node
	// spends unreachable.
	DefaultDownFor = 10
)

// Config selects which faults the layer injects. The zero value injects
// nothing: the wrapper is then a transparent pass-through.
type Config struct {
	// DropProb is the per-message probability that a request or its
	// reply is lost in transit (dht.ErrLost).
	DropProb float64

	// TransientFrac is the fraction of nodes that are flaky: they cycle
	// through periodic down-windows (dht.ErrNodeDown) driven by the
	// virtual clock. Which nodes are flaky is a deterministic function
	// of (seed, node ID).
	TransientFrac float64

	// DownPeriod and DownFor shape the flaky nodes' duty cycle: down for
	// DownFor out of every DownPeriod ticks, at a per-node phase. Zero
	// values take the defaults above.
	DownPeriod int64
	DownFor    int64

	// SlowFrac is the fraction of nodes that are slow; a message
	// addressed to a slow node exceeds the timeout with probability
	// SlowTimeoutProb (dht.ErrTimeout).
	SlowFrac        float64
	SlowTimeoutProb float64
}

func (c Config) withDefaults() Config {
	if c.DownPeriod == 0 {
		c.DownPeriod = DefaultDownPeriod
	}
	if c.DownFor == 0 {
		c.DownFor = DefaultDownFor
	}
	return c
}

// Active reports whether the configuration injects any fault at all.
func (c Config) Active() bool {
	return c.DropProb > 0 || c.TransientFrac > 0 || (c.SlowFrac > 0 && c.SlowTimeoutProb > 0)
}

// Stats counts the faults injected so far, by class.
type Stats struct {
	Exchanges int64 // fault-checked message exchanges
	Lost      int64 // dropped in transit (dht.ErrLost)
	Timeouts  int64 // slow-node timeouts (dht.ErrTimeout)
	DownHits  int64 // messages addressed to a node inside a down-window
}

// Failed returns the total number of failed exchanges.
func (s Stats) Failed() int64 { return s.Lost + s.Timeouts + s.DownHits }

// Overlay wraps an inner dht.Overlay and injects faults on its message-
// bearing operations (RouteFrom, Successor, Predecessor). Zero-cost
// ground-truth operations (Owner, Nodes, Size), node-local reads
// (SuccessorList) and the protocol hooks (Step, Converged) pass through
// untouched.
//
// The fault layer is safe for concurrent counting passes: the per-message
// drop stream and the fault counters sit behind a mutex. Note that
// concurrent passes consume the shared drop stream in scheduling order,
// so which pass eats which drop is nondeterministic — deterministic runs
// parallelize at the trial level (one Overlay per trial), not inside one.
type Overlay struct {
	inner dht.Overlay
	env   *sim.Env
	cfg   Config

	// mu guards rng, stats, and the crashed set: exchange() runs on the
	// counting surface, which may be driven by many goroutines at once.
	mu      sync.Mutex
	rng     *rand.Rand
	stats   Stats
	crashed map[uint64]bool
}

// New wraps inner in a fault-injection layer drawing all randomness from
// env's master seed.
func New(inner dht.Overlay, env *sim.Env, cfg Config) *Overlay {
	return &Overlay{
		inner:   inner,
		env:     env,
		cfg:     cfg.withDefaults(),
		rng:     env.Derive("faultdht"),
		crashed: make(map[uint64]bool),
	}
}

// Stats returns a snapshot of the fault counters accumulated so far.
func (o *Overlay) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// Config returns the (defaulted) fault configuration.
func (o *Overlay) Config() Config { return o.cfg }

// unit hashes (seed, class, node ID) to a uniform value in [0, 1) — the
// node's deterministic draw for one trait.
func (o *Overlay) unit(class string, id uint64) float64 {
	h := md4.Sum64([]byte(fmt.Sprintf("%d|faultdht|%s|%d", o.env.Seed(), class, id)))
	return float64(h>>11) / (1 << 53)
}

func (o *Overlay) flaky(id uint64) bool { return o.unit("flaky", id) < o.cfg.TransientFrac }
func (o *Overlay) slow(id uint64) bool  { return o.unit("slow", id) < o.cfg.SlowFrac }

// DownAt reports whether a down-window with the given phase covers tick
// now: the window occupies ticks t with (t+phase) mod period < downFor.
// Exported as a pure function so the window boundaries are testable in
// isolation: the node is unreachable for exactly downFor consecutive
// ticks and reachable again at the first tick past the window.
func DownAt(now, phase, period, downFor int64) bool {
	return (now+phase)%period < downFor
}

// phase returns the node's deterministic down-window phase offset.
func (o *Overlay) phase(id uint64) int64 {
	return int64(o.unit("phase", id) * float64(o.cfg.DownPeriod))
}

// downNow reports whether the node is inside one of its transient down-
// windows at the current virtual time. Pure function of (seed, id, now);
// no lock needed.
func (o *Overlay) downNow(id uint64) bool {
	if o.cfg.TransientFrac <= 0 || !o.flaky(id) {
		return false
	}
	return DownAt(o.env.Clock.Now(), o.phase(id), o.cfg.DownPeriod, o.cfg.DownFor)
}

// isCrashed reports crash-stop death; caller holds mu.
func (o *Overlay) isCrashed(id uint64) bool { return o.crashed[id] }

// Crashed reports whether the node was killed by Crash. Unlike a
// down-window, crash-stop death never ends.
func (o *Overlay) Crashed(id uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.crashed[id]
}

// Down reports whether the node is unreachable at the current virtual
// time — crashed for good, or inside one of its transient down-windows.
func (o *Overlay) Down(n dht.Node) bool {
	return o.Crashed(n.ID()) || o.downNow(n.ID())
}

// Crash kills the node permanently: every future exchange addressed to
// it fails with dht.ErrNodeDown, forever — there is no window end and no
// revival. The crash is forwarded, so the node also leaves the inner
// overlay's membership and the inner overlay emits the crash trace.
func (o *Overlay) Crash(n dht.Node) {
	o.mu.Lock()
	if o.crashed[n.ID()] {
		o.mu.Unlock()
		return
	}
	o.crashed[n.ID()] = true
	o.mu.Unlock()
	o.inner.Crash(n)
}

// exchange applies the failure model to one request/reply exchange with
// node n: first the lossy link, then the node's down-window, then the
// slow-node timeout. Returns nil when the exchange succeeds. Every
// injected fault is reported to the environment's tracer.
func (o *Overlay) exchange(n dht.Node) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stats.Exchanges++
	if o.cfg.DropProb > 0 && o.rng.Float64() < o.cfg.DropProb {
		o.stats.Lost++
		o.fault(n.ID(), dht.ErrLost)
		return dht.ErrLost
	}
	if o.isCrashed(n.ID()) || o.downNow(n.ID()) {
		o.stats.DownHits++
		o.fault(n.ID(), dht.ErrNodeDown)
		return dht.ErrNodeDown
	}
	if o.cfg.SlowFrac > 0 && o.cfg.SlowTimeoutProb > 0 && o.slow(n.ID()) &&
		o.rng.Float64() < o.cfg.SlowTimeoutProb {
		o.stats.Timeouts++
		o.fault(n.ID(), dht.ErrTimeout)
		return dht.ErrTimeout
	}
	return nil
}

// fault emits one injected-fault event; one nil check when tracing is
// disabled.
func (o *Overlay) fault(node uint64, err error) {
	t := o.env.Tracer()
	if t == nil {
		return
	}
	t.Event(obs.Event{
		Tick: o.env.Clock.Now(),
		Kind: obs.KindFault,
		Node: node,
		Bit:  -1,
		Err:  obs.Classify(err),
	})
}

// Bits returns the inner overlay's identifier length.
func (o *Overlay) Bits() uint { return o.inner.Bits() }

// Size returns the inner overlay's live-node count.
func (o *Overlay) Size() int { return o.inner.Size() }

// Nodes returns the inner overlay's live nodes.
func (o *Overlay) Nodes() []dht.Node { return o.inner.Nodes() }

// RandomNode returns a uniformly chosen live node. It may return a node
// currently inside a down-window — the caller discovers that, as in a
// real deployment, by talking to it.
func (o *Overlay) RandomNode() dht.Node { return o.inner.RandomNode() }

// Owner is ground truth at zero simulated cost; no faults apply.
func (o *Overlay) Owner(key uint64) (dht.Node, error) { return o.inner.Owner(key) }

// RouteFrom routes to the owner of key starting at src, through the
// failure model: the originator's down-check, the inner route, then one
// exchange with the node reached. The route's hops are always reported —
// a failed exchange still traversed them — so callers can meter wasted
// traffic.
func (o *Overlay) RouteFrom(src dht.Node, key uint64) (dht.Route, error) {
	if o.Down(src) {
		// The originator itself is unreachable; nothing leaves it.
		o.mu.Lock()
		o.stats.Exchanges++
		o.stats.DownHits++
		o.fault(src.ID(), dht.ErrNodeDown)
		o.mu.Unlock()
		return dht.Route{}, dht.ErrNodeDown
	}
	route, err := o.inner.RouteFrom(src, key)
	if err == nil {
		err = o.exchange(route.Node)
	}
	if err != nil {
		return dht.Route{Hops: route.Hops, Stale: route.Stale}, err
	}
	return route, nil
}

// SuccessorList is the inner overlay's: reading the list is the node's
// local state — no exchange, no faults.
func (o *Overlay) SuccessorList(n dht.Node) []dht.Node { return o.inner.SuccessorList(n) }

// Step runs the inner overlay's protocol rounds.
func (o *Overlay) Step() { o.inner.Step() }

// Converged reports the inner overlay's protocol quiescence.
func (o *Overlay) Converged() bool { return o.inner.Converged() }

// Successor returns the live node following n, through the failure model
// (reaching the successor is a one-hop message exchange).
func (o *Overlay) Successor(n dht.Node) (dht.Node, error) {
	s, err := o.inner.Successor(n)
	if err != nil {
		return s, err
	}
	if ferr := o.exchange(s); ferr != nil {
		return nil, ferr
	}
	return s, nil
}

// Predecessor returns the live node preceding n, through the failure
// model.
func (o *Overlay) Predecessor(n dht.Node) (dht.Node, error) {
	p, err := o.inner.Predecessor(n)
	if err != nil {
		return p, err
	}
	if ferr := o.exchange(p); ferr != nil {
		return nil, ferr
	}
	return p, nil
}
