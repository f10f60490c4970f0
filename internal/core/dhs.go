package core

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/sim"
)

// DHS is a Distributed Hash Sketch handle. It is a client-side view: all
// persistent state lives in the per-node Stores on the overlay, so any
// number of DHS handles with the same parameters interoperate — exactly
// the paper's fully decentralized model.
//
// Concurrency: counting (Count, CountFrom, CountAllFrom, CountAdaptive*)
// is safe to call from any number of goroutines against one handle and
// one overlay — each pass draws from its own Derive-seeded RNG stream and
// all shared state it touches (stores, traffic, node counters) is
// synchronized. Insertion and clock advancement remain single-threaded:
// they mutate overlay state the counting surface only reads.
type DHS struct {
	cfg     Config
	geom    Geometry
	overlay dht.Overlay
	env     *sim.Env
	rng     *rand.Rand
	placer  overlayPlacer

	// countSeq numbers counting passes; pass p draws its targets from
	// the stream PCG(seed, countSalt^p), so sequential runs are exactly
	// reproducible and concurrent passes never share a stream.
	countSeq  uint64
	countSalt uint64

	// repairStats accumulates replica-repair work when this handle's
	// RepairFunc is installed on a stabilizing overlay (all atomics —
	// repair runs during protocol rounds that may overlap counting).
	repairStats RepairStats
}

// New validates the configuration and returns a DHS handle.
func New(cfg Config) (*DHS, error) {
	cfg = cfg.withDefaults()
	geom, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	d := &DHS{
		cfg:       cfg,
		geom:      geom,
		overlay:   cfg.Overlay,
		env:       cfg.Env,
		rng:       cfg.Env.Derive("dhs"),
		countSalt: md4.Sum64([]byte(fmt.Sprintf("%d|dhs-count", cfg.Env.Seed()))),
	}
	d.placer.d = d
	return d, nil
}

// countPass allocates a counting pass: its number and its private random
// stream. The stream is a pure function of (master seed, pass number), so
// a sequential sequence of passes is bit-for-bit reproducible, and two
// concurrent passes — which take distinct pass numbers from the atomic
// counter — never contend on or perturb each other's randomness. The pass
// number also stamps every trace event the pass emits, so interleaved
// event streams from concurrent passes stay separable.
func (d *DHS) countPass() (*rand.Rand, uint64) {
	pass := atomic.AddUint64(&d.countSeq, 1)
	return rand.New(rand.NewPCG(d.env.Seed(), d.countSalt^pass)), pass
}

// Config returns the (defaulted) configuration of the handle.
func (d *DHS) Config() Config { return d.cfg }

// MaxBit returns the highest usable bit position k − log₂(m); the
// counting scan covers positions [ShiftBits, MaxBit].
func (d *DHS) MaxBit() uint { return d.geom.MaxBit() }

// MetricID derives a metric identifier from a human-readable name, e.g.
// "relation-R/cardinality" or "relation-R/attr-a/bucket-17". Estimated
// metrics range from network parameters to histogram buckets (§3.2).
func MetricID(name string) uint64 {
	return md4.Sum64([]byte("metric|" + name))
}

// ItemID derives an item's DHT key from a label — the simulation stand-in
// for hashing a document's content or a tuple's primary key.
func ItemID(label string) uint64 {
	return md4.Sum64([]byte("item|" + label))
}

// Estimate is the result of one counting operation, with the cost
// breakdown the paper's evaluation tables report.
type Estimate struct {
	// Value is the estimated cardinality.
	Value float64
	// R holds the reconstructed per-vector statistics: maximum set bit
	// (sLL/LogLog/HLL; -1 if none found) or leftmost zero bit (PCSA).
	R []int
	// Cost aggregates the network cost of the operation.
	Cost CountCost
	// Quality reports how cleanly the counting pass executed under the
	// failure model; a zero ProbesFailed/IntervalsSkipped Quality means
	// the pass saw a perfect network.
	Quality Quality
}

// Quality annotates an estimate with how much the counting pass lost to
// failures, so a caller can judge a degraded estimate instead of
// receiving an error and nothing else (in the spirit of estimators that
// stay usable on degraded register state). Counting never aborts on a
// dead or unreachable node — the failed step consumes probe budget and
// the walk re-enters the interval at a fresh random target.
type Quality struct {
	// ProbesAttempted is the probe budget spent across all intervals of
	// the pass, successful probes and failed steps alike.
	ProbesAttempted int
	// ProbesFailed counts steps lost to drops, timeouts, or down nodes
	// (lookup, probe, or successor/predecessor hops).
	ProbesFailed int
	// IntervalsSkipped counts bit intervals where not a single node
	// could be probed: the pass has no evidence at all for those bit
	// positions.
	IntervalsSkipped int
	// VectorsUnresolved is the number of this metric's vectors that
	// ended the scan without a statistic. For the LogLog family a
	// never-observed vector is an ordinary empty bucket; it only
	// signals degradation in combination with failed probes.
	VectorsUnresolved int
	// StaleRetries counts overlay hops the pass wasted on stale routing
	// state — dead successors or fingers a stabilizing overlay had not
	// yet repaired, discovered by timeout and routed around — plus
	// successor-list fallbacks the retry walk took past a dead believed
	// successor. Always zero on overlays with atomically consistent
	// routing state.
	StaleRetries int
	// RepairWindow is true when the pass ran while the overlay's
	// stabilization protocol had repairs pending (dht.Overlay not
	// Converged): routing state was stale and recently crashed nodes'
	// tuples may not have been re-replicated yet, so extra degradation
	// is expected until the protocol settles.
	RepairWindow bool
	// Degraded is true when any failure affected the pass — the
	// estimate is still usable but was computed from partial evidence.
	Degraded bool
}

// CountCost itemizes what a counting operation consumed.
//
// Metering rule, shared with InsertCost: Lookups counts only lookups
// that successfully routed to a node. A lookup that fails mid-route
// (dropped message, down node, timeout) still spends probe budget and
// still meters its partial route in Hops/Bytes as dropped traffic, but
// is reported through Quality.ProbesAttempted/ProbesFailed rather than
// here — Lookups answers "how many interval entries succeeded", not
// "how many were tried".
type CountCost struct {
	Lookups      int   // successfully routed DHT lookups (one per entered interval)
	NodesVisited int   // total nodes probed, including retry walks
	Hops         int64 // overlay hops (lookup routes + 1-hop retries)
	Bytes        int64 // wire bytes under the §5.1 size model
}

func (c *CountCost) add(other CountCost) {
	c.Lookups += other.Lookups
	c.NodesVisited += other.NodesVisited
	c.Hops += other.Hops
	c.Bytes += other.Bytes
}

// StorageBytesPerNode returns the current DHS storage footprint of every
// live node in wire-model bytes, in ring order — the input to the storage
// load-balance analysis.
func (d *DHS) StorageBytesPerNode() []int64 {
	now := d.env.Clock.Now()
	nodes := d.overlay.Nodes()
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		if s, ok := n.App().(*Store); ok {
			out[i] = s.Bytes(now)
		}
	}
	return out
}

// TotalTuples returns the number of live tuples across the overlay.
func (d *DHS) TotalTuples() int {
	now := d.env.Clock.Now()
	total := 0
	for _, n := range d.overlay.Nodes() {
		if s, ok := n.App().(*Store); ok {
			total += s.Len(now)
		}
	}
	return total
}
