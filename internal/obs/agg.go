package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"dhsketch/internal/dht"
	"dhsketch/internal/stats"
)

// Aggregator is the metrics sink: it folds the event stream into per-node
// load tallies, a per-bit-interval probe heatmap, and a lookup hop-count
// histogram, and summarizes them with percentiles and Gini coefficients.
// It retains O(nodes + bits + distinct hop counts) state regardless of
// how many events pass through, so it can stay attached for entire runs.
type Aggregator struct {
	mu        sync.Mutex
	events    uint64
	passes    int64
	probes    map[uint64]int64 // node → probes answered
	stores    map[uint64]int64 // node → stores/refreshes handled (incl. replicas)
	bits      map[int16]*BitLoad
	hops      map[int64]int64 // lookup hop count → occurrences
	walkSteps int64
	expired   int64
	faults    [dht.ClassOther + 1]int64
}

// NewAggregator returns an empty aggregating sink.
func NewAggregator() *Aggregator {
	return &Aggregator{
		probes: make(map[uint64]int64),
		stores: make(map[uint64]int64),
		bits:   make(map[int16]*BitLoad),
		hops:   make(map[int64]int64),
	}
}

// BitLoad is one row of the per-bit-interval probe heatmap.
type BitLoad struct {
	// Bit is the interval's bit position.
	Bit int
	// Lookups counts successful routed entries into the interval.
	Lookups int64
	// Probes counts nodes successfully probed in the interval.
	Probes int64
	// Failed counts failed steps (lookups and walk steps) charged to the
	// interval's probe budget.
	Failed int64
}

func (a *Aggregator) bit(b int16) *BitLoad {
	bl := a.bits[b]
	if bl == nil {
		bl = &BitLoad{Bit: int(b)}
		a.bits[b] = bl
	}
	return bl
}

// Event folds one event into the running aggregates.
func (a *Aggregator) Event(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	switch e.Kind {
	case KindCountStart:
		a.passes++
	case KindLookup:
		bl := a.bit(e.Bit)
		if e.Err == dht.ClassNone {
			bl.Lookups++
			a.hops[e.Arg]++
		} else {
			bl.Failed++
		}
	case KindProbe:
		a.probes[e.Node]++
		a.bit(e.Bit).Probes++
	case KindWalkStep:
		a.walkSteps++
		if e.Err != dht.ClassNone {
			a.bit(e.Bit).Failed++
		}
	case KindStore, KindReplica:
		a.stores[e.Node]++
	case KindExpire:
		a.expired += e.Arg
	case KindFault, KindStoreFail:
		a.faults[e.Err]++
	}
}

// FaultTally counts failure-model deliveries by class.
type FaultTally struct {
	Lost, Timeouts, Down, NoRoute, Other int64
}

// Total returns the number of faults across all classes.
func (t FaultTally) Total() int64 {
	return t.Lost + t.Timeouts + t.Down + t.NoRoute + t.Other
}

// LoadReport is the aggregator's summary: the quantities behind the
// paper's uniform-access-load claim (Table 3), measured instead of
// assumed.
type LoadReport struct {
	// Events is the number of events folded in.
	Events uint64
	// Passes is the number of counting passes observed.
	Passes int64
	// WalkSteps is the total number of successor/predecessor retry steps.
	WalkSteps int64
	// Expired is the total number of TTL-expired tuples garbage-collected.
	Expired int64
	// ProbesPerNode distributes answered probes over the overlay; nodes
	// never probed count as zero.
	ProbesPerNode stats.Distribution
	// StoresPerNode distributes handled stores/refreshes (replicas
	// included) over the overlay.
	StoresPerNode stats.Distribution
	// LookupHops distributes the per-lookup routed hop counts.
	LookupHops stats.Distribution
	// Bits is the probe heatmap in ascending bit order.
	Bits []BitLoad
	// Faults tallies failure-model deliveries by class.
	Faults FaultTally
}

// TotalProbes returns the number of answered probes across all nodes.
func (r LoadReport) TotalProbes() int64 {
	var total int64
	for _, b := range r.Bits {
		total += b.Probes
	}
	return total
}

// Report summarizes the aggregates. totalNodes is the overlay size: nodes
// that never appear in the stream are included as zero-load samples, so
// the distributions describe the whole overlay, not just its active part.
func (a *Aggregator) Report(totalNodes int) LoadReport {
	a.mu.Lock()
	defer a.mu.Unlock()

	r := LoadReport{
		Events:        a.events,
		Passes:        a.passes,
		WalkSteps:     a.walkSteps,
		Expired:       a.expired,
		ProbesPerNode: perNodeDistribution(a.probes, totalNodes),
		StoresPerNode: perNodeDistribution(a.stores, totalNodes),
		LookupHops:    histDistribution(a.hops),
		Faults: FaultTally{
			Lost:     a.faults[dht.ClassLost],
			Timeouts: a.faults[dht.ClassTimeout],
			Down:     a.faults[dht.ClassDown],
			NoRoute:  a.faults[dht.ClassNoRoute],
			Other:    a.faults[dht.ClassOther],
		},
	}
	for _, bl := range a.bits {
		r.Bits = append(r.Bits, *bl)
	}
	sort.Slice(r.Bits, func(i, j int) bool { return r.Bits[i].Bit < r.Bits[j].Bit })
	return r
}

// perNodeDistribution expands a per-node tally into a full-overlay sample
// set (unseen nodes are zero) and describes it. The distribution is a
// function of the sample multiset only, so map iteration order cannot
// affect it.
func perNodeDistribution(m map[uint64]int64, totalNodes int) stats.Distribution {
	n := totalNodes
	if len(m) > n {
		n = len(m)
	}
	xs := make([]float64, 0, n)
	for _, v := range m {
		xs = append(xs, float64(v))
	}
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return stats.Describe(xs)
}

// histDistribution expands a value→count histogram into samples and
// describes it; again order-insensitive by construction.
func histDistribution(h map[int64]int64) stats.Distribution {
	var n int64
	for _, c := range h {
		n += c
	}
	xs := make([]float64, 0, n)
	for v, c := range h {
		for i := int64(0); i < c; i++ {
			xs = append(xs, float64(v))
		}
	}
	return stats.Describe(xs)
}

// Render writes the report as an aligned table: one distribution row per
// load class, then the per-bit heatmap.
func (r LoadReport) Render(w io.Writer) {
	fmt.Fprintf(w, "load report: %d events, %d counting passes, %d walk steps",
		r.Events, r.Passes, r.WalkSteps)
	if r.Expired > 0 {
		fmt.Fprintf(w, ", %d tuples expired", r.Expired)
	}
	if f := r.Faults.Total(); f > 0 {
		fmt.Fprintf(w, ", %d faults (%d lost / %d timeout / %d down)",
			f, r.Faults.Lost, r.Faults.Timeouts, r.Faults.Down)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "distribution\tmean\tmin\tp50\tp90\tp99\tmax\tgini")
	renderDist := func(name string, d stats.Distribution) {
		fmt.Fprintf(w, "%s\t%.2f\t%.0f\t%.1f\t%.1f\t%.1f\t%.0f\t%.3f\n",
			name, d.Mean, d.Min, d.P50, d.P90, d.P99, d.Max, d.Gini)
	}
	renderDist("probes/node", r.ProbesPerNode)
	renderDist("stores/node", r.StoresPerNode)
	renderDist("hops/lookup", r.LookupHops)
	if len(r.Bits) > 0 {
		fmt.Fprintln(w, "bit\tlookups\tprobes\tfailed")
		for _, b := range r.Bits {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", b.Bit, b.Lookups, b.Probes, b.Failed)
		}
	}
}
