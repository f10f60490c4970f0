// Package dhsketch is the public API of the Distributed Hash Sketches
// library — a reproduction of "Counting at Large: Efficient Cardinality
// Estimation in Internet-Scale Data Networks" (Ntarmos, Triantafillou,
// Weikum; ICDE 2006).
//
// A Distributed Hash Sketch (DHS) estimates the number of distinct items
// in a multiset spread over a structured peer-to-peer overlay. It is
// fully decentralized (no counter node), duplicate-insensitive, imposes
// uniform access and storage load, and answers counting queries in
// O(k·log N) overlay hops regardless of how many items, bitmap vectors,
// or metrics are involved.
//
// # Quick start
//
//	net := dhsketch.NewNetwork(1, 1024)            // 1024-node Chord overlay
//	d, _ := dhsketch.New(net, dhsketch.Config{})   // DHS with the paper's defaults
//	metric := dhsketch.MetricID("shared-documents")
//	for _, doc := range docs {
//	    d.Insert(metric, dhsketch.ItemID(doc))     // from a random node
//	}
//	est, _ := d.Count(metric)                      // from a random node
//	fmt.Println(est.Value, est.Cost.Hops)
//
// Histograms over DHS (histogram subpackage semantics re-exported here)
// turn the same machinery into a selectivity-estimation substrate for
// internet-scale query optimization; see examples/queryopt.
//
// The package wraps the implementation in internal/: core (the DHS
// algorithms), chord (the overlay), sketch (PCSA, super-LogLog,
// HyperLogLog), histogram, optimizer, and sim (the deterministic
// simulation kernel).
package dhsketch

import (
	"io"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/faultdht"
	"dhsketch/internal/histogram"
	"dhsketch/internal/obs"
	"dhsketch/internal/optimizer"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/stats"
)

// Re-exported core types. The DHS handle is a client-side view: all
// durable state lives on the overlay's nodes, so independently created
// handles with equal parameters interoperate.
type (
	// Config parameterizes a DHS; its zero value (plus the Network
	// passed to New) reproduces the paper's defaults: k = 24, m = 512,
	// lim = 5, super-LogLog... except Kind, which defaults to
	// super-LogLog only through New (the sketch.Kind zero value is PCSA).
	Config = core.Config
	// DHS is the distributed sketch handle.
	DHS = core.DHS
	// Estimate is a counting result with its cost breakdown.
	Estimate = core.Estimate
	// CountCost itemizes a counting operation's network cost.
	CountCost = core.CountCost
	// InsertCost itemizes an insertion's network cost.
	InsertCost = core.InsertCost
	// Quality annotates an Estimate with how much of the counting walk
	// failed or was skipped under the failure model.
	Quality = core.Quality
	// Node is an overlay node handle.
	Node = dht.Node
	// Overlay is the DHT abstraction DHS runs over.
	Overlay = dht.Overlay
	// Traffic is a snapshot of the global bytes/hops/messages meter.
	Traffic = sim.Traffic
	// FaultConfig parameterizes the fault-injection layer: message loss,
	// transient down-windows, and slow-node timeouts.
	FaultConfig = faultdht.Config
	// FaultStats counts the faults the injection layer has delivered.
	FaultStats = faultdht.Stats
	// FaultOverlay is a fault-injecting wrapper around an Overlay.
	FaultOverlay = faultdht.Overlay
)

// Typed errors DHS operations return or wrap. Counting degrades
// gracefully — remote faults reduce Estimate.Quality rather than
// surfacing here — so these appear mainly from insertions with retries
// disabled (Config.InsertRetries < 0) and from dead or unreachable
// query origins.
var (
	// ErrNodeDown reports an operation on or through a failed node.
	ErrNodeDown = dht.ErrNodeDown
	// ErrTimeout reports an exchange with a slow node that timed out.
	ErrTimeout = dht.ErrTimeout
	// ErrLost reports a message the network dropped.
	ErrLost = dht.ErrLost
	// ErrNoRoute reports that no live node could originate the operation.
	ErrNoRoute = dht.ErrNoRoute
)

// Estimator kinds.
const (
	// PCSA selects Probabilistic Counting with Stochastic Averaging
	// (Flajolet & Martin 1985) — the paper's DHS-PCSA.
	PCSA = sketch.KindPCSA
	// SuperLogLog selects truncated LogLog counting (Durand & Flajolet
	// 2003) — the paper's DHS-sLL, and the default.
	SuperLogLog = sketch.KindSuperLogLog
	// LogLog selects plain LogLog counting.
	LogLog = sketch.KindLogLog
	// HyperLogLog is an extension beyond the paper: the successor
	// estimator runs on the same distributed state for free.
	HyperLogLog = sketch.KindHyperLogLog
)

// Histogram types (§4.3 of the paper).
type (
	// HistogramSpec describes bucket layout over an attribute.
	HistogramSpec = histogram.Spec
	// Histogram is a reconstructed histogram with per-bucket estimates.
	Histogram = histogram.Histogram
	// HistogramBuilder records tuples under their bucket's metric.
	HistogramBuilder = histogram.Builder
)

// Optimizer types.
type (
	// TableStats feeds relation statistics to the join optimizer.
	TableStats = optimizer.TableStats
	// Plan is an optimized join tree with estimated shipped bytes.
	Plan = optimizer.Plan
)

// Observability types (internal/obs). A Tracer attached to a Network
// receives one structured event per lookup, probe, walk step, store,
// TTL expiry, and injected fault, timestamped in virtual clock ticks.
// Tracing is strictly opt-in: with no tracer attached the instrumented
// hot paths pay a single nil check per event site.
type (
	// Tracer receives simulation events; implementations must be safe
	// for concurrent use (all sinks in this package are).
	Tracer = obs.Tracer
	// TraceEvent is one structured simulation event.
	TraceEvent = obs.Event
	// TraceKind discriminates event types (lookup, probe, store, ...).
	TraceKind = obs.Kind
	// TraceRing is a bounded in-memory sink keeping the latest events —
	// a flight recorder for tests and failure dumps.
	TraceRing = obs.Ring
	// TraceAggregator folds events into per-node load distributions,
	// a per-bit probe heatmap, and a hop histogram.
	TraceAggregator = obs.Aggregator
	// LoadReport is a TraceAggregator summary with percentiles and Gini
	// coefficients — the measured form of the paper's uniform-load claim.
	LoadReport = obs.LoadReport
	// CountersSummary distributes the nodes' own load counters.
	CountersSummary = dht.CountersSummary
	// Distribution is a summarized sample set (mean, percentiles, Gini).
	Distribution = stats.Distribution
)

// NewTraceRing returns a flight-recorder sink holding the last capacity
// events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewTraceJSONL returns a sink streaming events to w as one JSON object
// per line. Call Flush when done.
func NewTraceJSONL(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewTraceAggregator returns an aggregating metrics sink.
func NewTraceAggregator() *TraceAggregator { return obs.NewAggregator() }

// MultiTracer fans events out to several sinks; nil sinks are skipped.
func MultiTracer(sinks ...Tracer) Tracer { return obs.Multi(sinks...) }

// Network bundles a deterministic simulation environment with a
// Chord-like overlay — everything a DHS needs to run in-process. For a
// real deployment, implement the Overlay interface over your DHT and
// pass it through Config instead.
type Network struct {
	// Env exposes the virtual clock and the global traffic meter.
	Env *sim.Env
	// Ring is the Chord-like overlay.
	Ring *chord.Ring

	// faults, when set by InjectFaults, wraps Ring for every DHS created
	// afterwards.
	faults *faultdht.Overlay
}

// NewNetwork creates an n-node simulated overlay seeded deterministically.
func NewNetwork(seed uint64, n int) *Network {
	env := sim.NewEnv(seed)
	return &Network{Env: env, Ring: chord.New(env, n)}
}

// Nodes returns the overlay's live nodes in ring order.
func (n *Network) Nodes() []Node { return n.Ring.Nodes() }

// RandomNode returns a uniformly chosen live node.
func (n *Network) RandomNode() Node { return n.Ring.RandomNode() }

// AdvanceClock moves the virtual clock forward (soft-state TTLs age).
func (n *Network) AdvanceClock(ticks int64) { n.Env.Clock.Advance(ticks) }

// TrafficTotal returns the cumulative network traffic so far.
func (n *Network) TrafficTotal() Traffic { return n.Env.Traffic.Snapshot() }

// FailNodes crashes k random nodes (their soft state is lost).
func (n *Network) FailNodes(k int) { n.Ring.FailRandom(k) }

// AttachTracer attaches (or, with nil, detaches) an observability sink:
// every subsequent lookup, probe, walk step, store, expiry, and injected
// fault on this network streams to it. Attach before starting operations
// — the sink reference is read without synchronization by concurrent
// counting passes.
func (n *Network) AttachTracer(t Tracer) { n.Env.SetTracer(t) }

// LoadSummary distributes the nodes' load counters (messages routed,
// probes answered, stores handled) across the overlay — the measured
// form of the paper's uniform-load constraint. It needs no tracer: the
// counters are always on.
func (n *Network) LoadSummary() CountersSummary {
	return dht.SummarizeCounters(n.Ring.Nodes())
}

// InjectFaults interposes a deterministic fault-injection layer between
// the overlay and every DHS created afterwards: messages drop with
// cfg.DropProb, a cfg.TransientFrac fraction of nodes cycle through
// clock-driven down-windows, and slow nodes time out. Returns the layer
// for its Stats. Call before New/NewPCSA/NewWithKind — handles created
// earlier keep talking to the pristine ring.
func (n *Network) InjectFaults(cfg FaultConfig) *FaultOverlay {
	n.faults = faultdht.New(n.Ring, n.Env, cfg)
	return n.faults
}

// overlay returns the ring, behind the fault layer if one is installed.
func (n *Network) overlay() Overlay {
	if n.faults != nil {
		return n.faults
	}
	return n.Ring
}

// New creates a super-LogLog DHS (the paper's DHS-sLL, its strongest
// configuration) over the network. Zero fields of cfg take the paper's
// §5.1 defaults; cfg.Overlay, cfg.Env, and cfg.Kind are filled in. Use
// NewPCSA or NewWithKind for the other estimator families.
func New(net *Network, cfg Config) (*DHS, error) {
	return NewWithKind(net, cfg, sketch.KindSuperLogLog)
}

// NewPCSA creates a DHS using the PCSA estimator (DHS-PCSA in the
// paper's terminology).
func NewPCSA(net *Network, cfg Config) (*DHS, error) {
	return NewWithKind(net, cfg, sketch.KindPCSA)
}

// NewWithKind creates a DHS with an explicit estimator family.
func NewWithKind(net *Network, cfg Config, kind sketch.Kind) (*DHS, error) {
	cfg.Overlay = net.overlay()
	cfg.Env = net.Env
	cfg.Kind = kind
	return core.New(cfg)
}

// MetricID derives a metric identifier from a name. All nodes agree on
// the identifier without coordination.
func MetricID(name string) uint64 { return core.MetricID(name) }

// ItemID derives an item's 64-bit DHT key from a label (stand-in for
// hashing real content).
func ItemID(label string) uint64 { return core.ItemID(label) }

// NewHistogramBuilder validates the spec and returns a builder that
// records tuples into the DHS under per-bucket metrics.
func NewHistogramBuilder(d *DHS, spec HistogramSpec) (*HistogramBuilder, error) {
	return histogram.NewBuilder(d, spec)
}

// ReconstructHistogram estimates all buckets of the spec's histogram in
// one multi-dimensional counting pass from node src (§4.2: the hop cost
// is independent of the bucket count).
func ReconstructHistogram(d *DHS, spec HistogramSpec, src Node) (*Histogram, error) {
	return histogram.Reconstruct(d, spec, src)
}

// HistogramFromCounts wraps exact bucket counts for ground-truth
// comparisons and exact-statistics optimization.
func HistogramFromCounts(spec HistogramSpec, counts []int) *Histogram {
	return histogram.FromCounts(spec, counts)
}

// OptimizeJoin returns the cheapest join tree for the relations under
// the distributed symmetric-hash-join cost model (bytes shipped).
func OptimizeJoin(tables []TableStats) Plan { return optimizer.Optimize(tables) }

// LeftDeepJoin builds the left-deep plan following the given order — the
// behaviour of a statistics-less executor.
func LeftDeepJoin(tables []TableStats, order []int) Plan {
	return optimizer.LeftDeepPlan(tables, order)
}

// RetryLimit evaluates the paper's eq. 6: probes needed to find a
// non-empty node with probability ≥ p in an interval of nNodes nodes
// holding nItems items over m vectors with `replicas` replicas.
func RetryLimit(nNodes, nItems float64, p float64, m, replicas int) int {
	return core.RetryLimit(nNodes, nItems, p, m, replicas)
}
