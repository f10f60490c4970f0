// Data-plane hot-path benchmarks (DESIGN.md §12). They isolate the
// per-operation cost of the three hot paths: the multi-metric counting
// walk, bulk insertion, and (in internal/store) the probe-reply answer
// itself. The evaluation tables are not benchmarks: cmd/dhsbench prints
// them and internal/experiments' golden tests pin them.
package dhsketch_test

import (
	"fmt"
	"testing"

	dhsketch "dhsketch"
)

// hotRingNodes is the overlay size the trajectory benchmarks run
// against: big enough that finger routing depth and per-node store
// population dominate, small enough to build in seconds.
const hotRingNodes = 1024

// hotMetrics is the number of metrics counted in one multi-metric pass.
const hotMetrics = 8

// hotItemsPerMetric sizes the per-metric relation so a 1024-node ring
// holds a few hundred live tuples per node — the regime where the
// probe-reply scan cost is visible.
const hotItemsPerMetric = 40000

// newHotWorld builds the populated ring every trajectory benchmark runs
// against: hotMetrics relations bulk-inserted from 32 distinct source
// nodes each, m = 64 vectors.
func newHotWorld(b *testing.B) (*dhsketch.DHS, *dhsketch.Network, []uint64) {
	b.Helper()
	net := dhsketch.NewNetwork(1, hotRingNodes)
	d, err := dhsketch.New(net, dhsketch.Config{M: 64, K: 20})
	if err != nil {
		b.Fatal(err)
	}
	nodes := net.Nodes()
	metrics := make([]uint64, hotMetrics)
	for mi := range metrics {
		metrics[mi] = dhsketch.MetricID(fmt.Sprintf("hot-metric-%d", mi))
		const sources = 32
		per := hotItemsPerMetric / sources
		ids := make([]uint64, per)
		for s := 0; s < sources; s++ {
			for i := range ids {
				ids[i] = dhsketch.ItemID(fmt.Sprintf("hot-%d-%d-%d", mi, s, i))
			}
			src := nodes[(s*len(nodes))/sources]
			if _, err := d.BulkInsertFrom(src, metrics[mi], ids); err != nil {
				b.Fatal(err)
			}
		}
	}
	return d, net, metrics
}

// BenchmarkHotCountMultiMetric measures one multi-dimensional counting
// pass (8 metrics, one walk) against the populated 1024-node ring — the
// workload the indexed store and the per-node finger tables exist for.
func BenchmarkHotCountMultiMetric(b *testing.B) {
	d, net, metrics := newHotWorld(b)
	src := net.Nodes()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests, err := d.CountAllFrom(src, metrics)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ests[0].Value, "est@metric0")
			b.ReportMetric(float64(ests[0].Cost.Hops), "hops/pass")
		}
	}
}

// BenchmarkHotCountSingleMetric is the single-metric baseline of the
// same walk, for the multi-metric amortization ratio.
func BenchmarkHotCountSingleMetric(b *testing.B) {
	d, net, metrics := newHotWorld(b)
	src := net.Nodes()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.CountFrom(src, metrics[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotBulkInsert measures one bulk insertion round (one source,
// 1250 items, ≤ k lookups) against the populated ring. Re-inserting the
// same items refreshes their tuples in place: the steady-state refresh
// workload of §3.3.
func BenchmarkHotBulkInsert(b *testing.B) {
	d, net, metrics := newHotWorld(b)
	src := net.Nodes()[0]
	ids := make([]uint64, 1250)
	for i := range ids {
		ids[i] = dhsketch.ItemID(fmt.Sprintf("hot-bulk-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.BulkInsertFrom(src, metrics[0], ids); err != nil {
			b.Fatal(err)
		}
	}
}
