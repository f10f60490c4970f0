// Package metrics is the wall-clock runtime observability layer of the
// repository: a stdlib-only registry of atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition, built for
// the networked deployment (internal/netdht, cmd/dhsnode) that the
// deterministic tracer (internal/obs) cannot observe — obs events are
// tick-stamped from sim.Clock, but a daemon's RPC latencies, dial
// failures, and maintenance-round durations exist only in wall time.
//
// Contracts (DESIGN.md §15):
//
//   - Cost. Instrumentation follows the obs.Tracer discipline: a nil
//     *Registry hands out nil instruments, and every instrument method
//     no-ops on a nil receiver — so a hot path pays exactly one branch
//     (the nil check inside Inc/Add/Observe) and zero allocations when
//     metrics are off. Live instruments are single atomic operations.
//
//   - Concurrency. Registration takes the registry mutex; instrument
//     updates are lock-free atomics, safe from any goroutine. Reads
//     (exposition, Value) observe each series atomically but not the
//     registry as a whole — a scrape is a per-series snapshot, which is
//     all Prometheus semantics require.
//
//   - Determinism boundary. This package is wall-clock-domain by
//     design: Histogram.Start/Timer.Stop read the monotonic clock. The
//     dhslint determinism analyzer therefore excludes it, exactly like
//     internal/netdht (DESIGN.md §10). Simulation-facing code keeps
//     using internal/obs; the two layers meet only in packages that are
//     themselves excluded (netdht) or that touch nothing but counters
//     (internal/store, whose runtime counters are clock-free atomics).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair attached to a metric series. Label sets
// are canonicalized (sorted by key) at registration time; instrument
// lookups with the same pairs in any order return the same series.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// kind discriminates the metric families a registry holds.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered metric instance: a canonical label
// signature plus exactly one live instrument (the others nil).
type series struct {
	sig string // rendered {k="v",...} signature, "" when unlabeled
	c   *Counter
	g   *Gauge
	gf  func() float64
	h   *Histogram
}

// family groups every series sharing one metric name: one kind, one
// help string, many label signatures.
type family struct {
	name   string
	help   string // escaped for exposition
	kind   kind
	series map[string]*series
}

// familyOrder is one family as a scrape walks it: its series sorted by
// label signature.
type familyOrder struct {
	f      *family
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call New. A nil
// *Registry is the "metrics off" state: every getter returns a nil
// instrument and WritePrometheus writes nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// order is the scrape order, families sorted by name: built by the
	// first scrape after a registration added a series, dropped by the
	// next such registration, and never edited, so a scrape walks it
	// without the lock.
	order []familyOrder
	// spare is the text buffer the last scrape to end left for the next to
	// start; a scrape that finds none, because another holds it, makes one.
	spare []byte
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyOf returns (creating if needed) the family for name, checking
// the kind invariant. Caller holds r.mu.
func (r *Registry) familyOf(name, help string, k kind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: escapeHelp(help), kind: k, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic("metrics: metric family re-registered with a different kind")
	}
	return f
}

// Counter returns the counter series for name and labels, registering
// it on first use. Repeated registration with the same name and labels
// returns the same instrument. Nil receiver returns nil (a no-op
// counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyOf(name, help, kindCounter)
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig, c: &Counter{}}
		r.add(f, s)
	}
	return s.c
}

// Gauge returns the gauge series for name and labels, registering it on
// first use. Nil receiver returns nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyOf(name, help, kindGauge)
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig, g: &Gauge{}}
		r.add(f, s)
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time — the natural shape for sizes read off live structures
// (peer-pool connections, store tuples). The first registration for a
// (name, labels) pair wins; later ones are ignored. fn must be safe to
// call from any goroutine for the lifetime of the registry. Nil
// receiver is a no-op.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyOf(name, help, kindGaugeFunc)
	if f.series[sig] == nil {
		r.add(f, &series{sig: sig, gf: fn})
	}
}

// Histogram returns the histogram series for name and labels,
// registering it on first use with the given bucket upper bounds
// (strictly increasing; a final +Inf bucket is implicit). Repeated
// registration returns the existing instrument — the first buckets
// win. Nil receiver returns nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must be strictly increasing")
		}
	}
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyOf(name, help, kindHistogram)
	s := f.series[sig]
	if s == nil {
		h := &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Uint64, len(buckets)+1),
		}
		s = &series{sig: sig, h: h}
		r.add(f, s)
	}
	return s.h
}

// add registers a new series of f and drops the scrape order. Caller
// holds r.mu.
func (r *Registry) add(f *family, s *series) {
	f.series[s.sig] = s
	r.order = nil
}

// startScrape returns the families sorted by name, each with its series
// sorted by label signature — the deterministic scrape order — building
// it if a registration has dropped it, and a text buffer to build the
// scrape in.
func (r *Registry) startScrape() ([]familyOrder, []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := r.spare
	r.spare = nil
	if buf == nil {
		buf = make([]byte, 0, 2*expoChunk)
	}
	if r.order != nil {
		return r.order, buf
	}
	order := make([]familyOrder, 0, len(r.families))
	for _, f := range r.families {
		fo := familyOrder{f: f, series: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			fo.series = append(fo.series, s)
		}
		sort.Slice(fo.series, func(i, j int) bool { return fo.series[i].sig < fo.series[j].sig })
		order = append(order, fo)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].f.name < order[j].f.name })
	r.order = order
	return order, buf
}

// endScrape leaves buf for the next scrape.
func (r *Registry) endScrape(buf []byte) {
	r.mu.Lock()
	r.spare = buf[:0]
	r.mu.Unlock()
}

// ---------------------------------------------------------------------
// Instruments

// Counter is a monotonically increasing counter. All methods no-op on a
// nil receiver — the one-branch "metrics off" path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. All methods no-op on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (upper bounds,
// cumulative at exposition like Prometheus) plus a +Inf overflow
// bucket, and tracks the total sum and count. Observe is lock-free: a
// linear scan over the bounds (histograms here have ≲16 buckets) and
// two atomic updates. All methods no-op on a nil receiver.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Timer measures one wall-clock interval into a histogram, in seconds.
// The zero Timer (from a nil histogram) is a no-op, so instrumented
// code needs no guard:
//
//	tm := h.Start()   // nil h: zero Timer
//	... work ...
//	tm.Stop()         // nil h: no-op
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins timing into h. Nil receiver returns the no-op Timer.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed seconds since Start.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(time.Since(t.start).Seconds())
}

// ---------------------------------------------------------------------
// Default bucket layouts

// DefLatencyBuckets spans loopback RPCs (~100µs) through WAN timeouts
// (~10s): the layout every netdht latency histogram uses.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets spans wire frames from a ping (2 bytes) to the 1 MiB
// frame cap, ×4 per step.
var DefSizeBuckets = []float64{
	16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
}
