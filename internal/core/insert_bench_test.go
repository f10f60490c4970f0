package core

import (
	"fmt"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// benchInsertDHS is the insertion benchmarks' world: N = 1024, m = 512,
// sLL, with the benchmarked items already stored so every operation is a
// §3.3 refresh.
func benchInsertDHS(b *testing.B, ids []uint64) (*DHS, *chord.Ring) {
	b.Helper()
	env := sim.NewEnv(1)
	ring := chord.New(env, 1024)
	d, err := New(Config{Overlay: ring, Env: env, M: 512, Kind: sketch.KindSuperLogLog})
	if err != nil {
		b.Fatal(err)
	}
	for i := range ids {
		ids[i] = ItemID(fmt.Sprintf("refresh-%d", i))
	}
	if _, err := d.BulkInsertFrom(ring.Nodes()[0], MetricID("bench"), ids); err != nil {
		b.Fatal(err)
	}
	return d, ring
}

// BenchmarkInsertRefresh is one InsertFrom of an item already stored.
func BenchmarkInsertRefresh(b *testing.B) {
	ids := make([]uint64, 1024)
	d, ring := benchInsertDHS(b, ids)
	src, metric := ring.Nodes()[0], MetricID("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.InsertFrom(src, metric, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkInsert64 is one BulkInsertFrom of 64 items already stored.
func BenchmarkBulkInsert64(b *testing.B) {
	ids := make([]uint64, 64)
	d, ring := benchInsertDHS(b, ids)
	src, metric := ring.Nodes()[0], MetricID("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.BulkInsertFrom(src, metric, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkItemID is the hash every inserted label pays: md4 of
// "item|" + label, at the load generator's label length.
func BenchmarkItemID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ItemID("m-3:item-0000123456")
	}
}

// BenchmarkInsertLoaded is sim_scan's load shape: Insert from a random
// origin at N = 1024, m = 512, sLL, over 8 metrics, each operation a
// distinct item of its metric. sequential writes one metric's items
// after another, as the preload does; rotating changes metric every 40
// inserts, as sim_scan's window does. Both report the route's hops.
func BenchmarkInsertLoaded(b *testing.B) {
	const metrics, items = 8, 1 << 15
	for _, order := range []struct {
		name string
		run  int // inserts to one metric before the next
	}{{"sequential", items}, {"rotating", 40}} {
		b.Run(order.name, func(b *testing.B) {
			env := sim.NewEnv(1)
			ring := chord.New(env, 1024)
			d, err := New(Config{Overlay: ring, Env: env, M: 512, Kind: sketch.KindSuperLogLog})
			if err != nil {
				b.Fatal(err)
			}
			ids := make([][]uint64, metrics)
			mids := make([]uint64, metrics)
			for j := range ids {
				mids[j] = MetricID(fmt.Sprintf("loaded-%d", j))
				ids[j] = make([]uint64, items)
				for i := range ids[j] {
					ids[j][i] = ItemID(fmt.Sprintf("loaded-%d/%d", j, i))
				}
			}
			var hops int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i / order.run % metrics
				cost, err := d.Insert(mids[j], ids[j][i%items])
				if err != nil {
					b.Fatal(err)
				}
				hops += cost.Hops
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
}
