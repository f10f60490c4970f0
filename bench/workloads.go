package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// lanes is the number of generator goroutines of every network
// workload. It is fixed, not derived from the machine, so that points
// taken on different machines compare; the reference sandbox has two
// cores.
const lanes = 2

// opKind is what one generated operation asks of the system.
type opKind uint8

const (
	opCount  opKind = iota // GET /count on dhsd
	opInsert               // Client.Insert into the ring
)

// family is a set of metrics with one item pool each. Item i of metric
// j is the label "s<seed>/<prefix>-<j>/<i>": the seed is in the label,
// so each seed fills the sketches differently.
type family struct {
	prefix  string
	metrics int
	items   int // pool size per metric
}

var (
	// famRead is loaded in set-up and only refreshed afterwards: the
	// true cardinality of every r-* metric is its pool size throughout.
	famRead = family{prefix: "r", metrics: 16, items: 2000}
	// famWrite starts empty; the truth of w-* is what the lanes have
	// had acknowledged. 8 × 2500 is the pool of 20k labels.
	famWrite = family{prefix: "w", metrics: 8, items: 2500}
)

func (f family) metricName(j int) string { return fmt.Sprintf("%s-%d", f.prefix, j) }

func (f family) itemLabel(seed uint64, j, i int) string {
	return fmt.Sprintf("s%d/%s-%d/%d", seed, f.prefix, j, i)
}

// laneSpec is one generator lane's traffic.
type laneSpec struct {
	kind opKind
	fam  family
	// rate > 0 makes the lane open loop: Poisson arrivals at rate per
	// second, each operation timed from the instant it was due. rate 0
	// is a closed loop: the next operation starts when the last ended.
	rate float64
	// zipf draws the metric from Zipf(s=1.2), rank 0 hottest, instead
	// of uniformly.
	zipf bool
}

// workload is one named traffic mix. A workload without lanes runs
// in-process against the simulator facade.
type workload struct {
	name string
	// dhsd's serving configuration: -cache-ttl, and coalescing unless
	// -no-coalesce.
	cacheTTL time.Duration
	coalesce bool
	lanes    []laneSpec
}

// dhsdArgs spells the serving configuration as dhsd flags.
func (w workload) dhsdArgs() []string {
	args := []string{"-cache-ttl", w.cacheTTL.String()}
	if !w.coalesce {
		args = append(args, "-no-coalesce")
	}
	return args
}

// Scheduled rates per second, frozen here and in BENCHMARK.json's
// "why": each at or below 40% of what the reference sandbox sustains
// closed-loop — 382 uncached and 14.5k cached /count, 10.3k inserts.
// read_hot is paced because its cost per operation is the ring's work,
// which the cache's TTL fixes per second, spread over the requests: at
// a closed loop's rate it would be as unsteady as that rate.
const (
	hotReadRate    = 3000 // on each of two lanes
	mixedReadRate  = 60
	mixedWriteRate = 600
)

var workloads = []workload{
	{
		name:  "read_miss",
		lanes: []laneSpec{{kind: opCount, fam: famRead}, {kind: opCount, fam: famRead}},
	},
	{
		name:     "read_hot",
		cacheTTL: time.Second, coalesce: true,
		lanes: []laneSpec{
			{kind: opCount, fam: famRead, zipf: true, rate: hotReadRate},
			{kind: opCount, fam: famRead, zipf: true, rate: hotReadRate},
		},
	},
	{
		name:     "write_refresh",
		cacheTTL: time.Second, coalesce: true,
		lanes: []laneSpec{{kind: opInsert, fam: famWrite}, {kind: opInsert, fam: famWrite}},
	},
	{
		name:     "mixed_open",
		cacheTTL: 250 * time.Millisecond, coalesce: true,
		lanes: []laneSpec{
			{kind: opCount, fam: famRead, zipf: true, rate: mixedReadRate},
			{kind: opInsert, fam: famRead, rate: mixedWriteRate},
		},
	},
	{name: "sim_scan"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated operation. due is the offset from the start of
// the run at which an open-loop operation is to be sent; 0 in a closed
// loop.
type op struct {
	kind   opKind
	fam    family
	metric int
	item   int
	due    time.Duration
}

// opGen is a lane's operation stream, a pure function of (seed, lane
// index, spec).
type opGen struct {
	spec laneSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	at   time.Duration
}

func newOpGen(seed uint64, lane int, spec laneSpec) *opGen {
	rng := rand.New(rand.NewPCG(seed, uint64(lane)+0x9e3779b97f4a7c15))
	g := &opGen{spec: spec, rng: rng}
	if spec.zipf {
		g.zipf = rand.NewZipf(rng, 1.2, 1, uint64(spec.fam.metrics-1))
	}
	return g
}

func (g *opGen) next() op {
	o := op{kind: g.spec.kind, fam: g.spec.fam}
	if g.zipf != nil {
		o.metric = int(g.zipf.Uint64())
	} else {
		o.metric = g.rng.IntN(g.spec.fam.metrics)
	}
	if o.kind == opInsert {
		o.item = g.rng.IntN(g.spec.fam.items)
	}
	if g.spec.rate > 0 {
		g.at += time.Duration(g.rng.ExpFloat64() / g.spec.rate * float64(time.Second))
		o.due = g.at
	}
	return o
}

// firstOps returns the first n operations of a workload, the lanes
// taken in turn.
func firstOps(w workload, seed uint64, n int) []op {
	gens := make([]*opGen, len(w.lanes))
	for i, spec := range w.lanes {
		gens[i] = newOpGen(seed, i, spec)
	}
	ops := make([]op, 0, n)
	for i := 0; len(gens) > 0 && i < n; i++ {
		ops = append(ops, gens[i%len(gens)].next())
	}
	return ops
}
