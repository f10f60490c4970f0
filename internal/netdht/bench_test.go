package netdht

import (
	"fmt"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// BenchmarkClientCountUncached is the ladder's rung for one uncached
// Algorithm-1 scan over the wire: Client.Count's scan against a converged
// loopback Cluster holding one loaded metric, at the repo benchmark's
// geometry (k=16, m=64, sLL, lim=5) and with item ids hashed the way its
// load generator hashes them — a multiplicative sequence is a stratified
// sample of the low 16 bits and ends the scan an interval or two early.
// Two rows per ring size: cold starts every scan from an empty view, which
// is what a one-shot `dhsnode count` pays; warm scans with what the client
// remembers of the ring, which is what dhsd pays. Beside ns/op they report
// what the scan cost in exchanges and bytes, read from the client's own
// netdht_out_* series: find_succ/op is the number the view lowers — to
// nothing, warm; visits/op is the evidence gathered, (interval, owner)
// answers; owners/op the distinct nodes that gave it, and probes/op the
// exchanges it took — one per owner, not one per visit. visits/op and
// owners/op are equal between the two rows: the view changes what a scan
// pays, not whom it asks. The n32 rows are the honest shape of the
// one-probe-per-owner saving: arcs shrink as the ring grows, so more of the
// visits are first visits. kept-share is the part of the masks the replies
// carried that the owner sent as kept, the same as its connection's last
// (wire.Memory). A third row, changing, is warm with 200 fresh items
// inserted before every scan, outside the timer and by another client: the
// masks a scan reads move between scans, as under a write load, and a
// reply keeps only what did not.
func BenchmarkClientCountUncached(b *testing.B) {
	for _, n := range []int{8, 32} {
		for _, temp := range []string{"cold", "warm", "changing"} {
			b.Run(fmt.Sprintf("n%d/%s", n, temp), func(b *testing.B) {
				cl, c, reg := benchClient(b, n)
				for i := 0; i < 2000; i++ {
					if err := c.Insert(1, core.ItemID(fmt.Sprint("item-", i))); err != nil {
						b.Fatalf("insert %d: %v", i, err)
					}
				}
				var between func(int)
				if temp == "changing" {
					w, _ := storeClient(b, cl.Servers()[0].Addr(), 8)
					between = func(i int) {
						for j := 0; j < 200; j++ {
							if err := w.Insert(1, core.ItemID(fmt.Sprint("fresh-", i, "-", j))); err != nil {
								b.Fatalf("insert: %v", err)
							}
						}
					}
				}
				countRow(b, c, reg, 1, temp == "cold", between)
			})
		}
	}
	// The paper's geometry (k = 24, m = 512), where a reply is mostly masks:
	// warm rows for sLL and PCSA, each its own metric of 200 000 items on one
	// shared 32-node cluster. A load sends one insert per distinct (vector,
	// bit) tuple the items set, which leaves the stores holding what
	// inserting every item would, in a few thousand exchanges.
	b.Run("n32/m512", func(b *testing.B) {
		cl, err := NewCluster(sim.NewEnv(1), 32, chord.ProtocolConfig{})
		if err != nil {
			b.Fatalf("NewCluster: %v", err)
		}
		b.Cleanup(cl.Close)
		for _, row := range []struct {
			name   string
			kind   sketch.Kind
			metric uint64
		}{{"sll", sketch.KindSuperLogLog, 2}, {"pcsa", sketch.KindPCSA, 3}} {
			reg := metrics.New()
			c, err := NewClient(ClientConfig{
				Entry: cl.Servers()[0].Addr(), K: 24, M: 512, Kind: row.kind, Lim: 5, Seed: 7, Metrics: reg,
			})
			if err != nil {
				b.Fatalf("NewClient: %v", err)
			}
			b.Cleanup(c.Close)
			seen := map[[2]int64]bool{}
			for i := 0; i < 200000; i++ {
				id := core.ItemID(fmt.Sprint("item-", i))
				v, bit := c.geom.Split(id)
				if key := [2]int64{int64(v), int64(bit)}; !seen[key] {
					seen[key] = true
					if err := c.Insert(row.metric, id); err != nil {
						b.Fatalf("insert %d: %v", i, err)
					}
				}
			}
			b.Run(row.name+"/warm", func(b *testing.B) { countRow(b, c, reg, row.metric, false, nil) })
		}
	})
}

// countRow times uncached counts of metric by c, from an empty view each
// when cold, after between(i) with the timer stopped when it is not nil, and
// reports what they cost from the client's registry.
func countRow(b *testing.B, c *Client, reg *metrics.Registry, metric uint64, cold bool, between func(int)) {
	c.Count(metric) // dial, and fill the view, outside the timer
	lookups, probes, bytes := outRPCs(reg, "find_succ"), outRPCs(reg, "probe"), wireBytes(reg)
	masks, kept := probeMasks(reg), keptMasks(reg)
	visits, owners := 0, 0
	met := map[uint64]bool{}
	sink := sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindProbe {
			visits++
			met[e.Node] = true
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if between != nil {
			b.StopTimer()
			between(i)
			b.StartTimer()
		}
		if cold {
			c.view.arcs = nil
		}
		clear(met)
		if res := c.countTraced(metric, sink); res.Degraded {
			b.Fatalf("scan = %+v", res)
		}
		owners += len(met)
	}
	b.StopTimer()
	ops := float64(b.N)
	b.ReportMetric(float64(outRPCs(reg, "find_succ")-lookups)/ops, "find_succ/op")
	b.ReportMetric(float64(outRPCs(reg, "probe")-probes)/ops, "probes/op")
	b.ReportMetric(float64(owners)/ops, "owners/op")
	b.ReportMetric(float64(visits)/ops, "visits/op")
	b.ReportMetric(float64(wireBytes(reg)-bytes)/ops, "wire-B/op")
	b.ReportMetric(float64(keptMasks(reg)-kept)/float64(max(probeMasks(reg)-masks, 1)), "kept-share")
}

// probeMasks is how many probe-reply masks a client has read, in any form.
func probeMasks(reg *metrics.Registry) (n uint64) {
	for _, form := range wire.FormNames {
		n += reg.Counter("netdht_probe_masks_total", "", metrics.L("form", form)).Value()
	}
	return n
}

// BenchmarkClientCountAll is §4.2's "probing one node in I_r answers bit r
// for all vectors and all metrics" as a table: one warm Client.CountAll of 1,
// 4, 16 and 64 loaded metrics against the same clusters at the same geometry.
// probes/op is the exchanges the scan took, and stays what one metric costs
// — it creeps up only as far as the deepest of the metrics is scanned
// further than the first; wire-B/op grows by the masks each further metric adds to
// the same replies, and wire-B/metric is that total shared out.
func BenchmarkClientCountAll(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			_, c, reg := benchClient(b, n)
			all := make([]uint64, 64)
			for m := range all {
				all[m] = uint64(m + 1)
				for i := 0; i < 2000; i++ {
					if err := c.Insert(all[m], core.ItemID(fmt.Sprint("item-", m, "-", i))); err != nil {
						b.Fatalf("insert: %v", err)
					}
				}
			}
			for _, k := range []int{1, 4, 16, 64} {
				b.Run(fmt.Sprintf("metrics%d", k), func(b *testing.B) {
					c.CountAll(nil, all[:k]) // fill the view outside the timer
					probes, bytes := outRPCs(reg, "probe"), wireBytes(reg)
					res := make([]CountResult, 0, k)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if res, err := c.CountAll(res, all[:k]); err != nil || res[0].Degraded {
							b.Fatalf("CountAll = %+v, %v", res, err)
						}
					}
					b.StopTimer()
					ops := float64(b.N)
					perOp := float64(wireBytes(reg)-bytes) / ops
					b.ReportMetric(float64(outRPCs(reg, "probe")-probes)/ops, "probes/op")
					b.ReportMetric(perOp, "wire-B/op")
					b.ReportMetric(perOp/float64(k), "wire-B/metric")
				})
			}
		})
	}
}

// BenchmarkClientInsert is the write-side rung: one Client.Insert — the
// routed store — against the same clusters at the same geometry. Two rows
// per ring size, as for the scan: cold starts every insert from an empty
// view, so the store enters at the first server and its ack brings a
// neighbourhood back — what the first stores of a one-shot `dhsnode insert`
// pay; warm sends it to the owner the view remembers, which is what a
// long-lived writer pays. Beside ns/op they report the client's exchanges
// and wire bytes per insert, all tags together — 1 and 16 warm until
// something retries: on a socket that carried a store before, a 14-byte kept
// request (version, tag, changed byte, key, bit, vector) and a 2-byte kept
// ack, where the first store on a socket is 24 bytes and its ack 6; cold, 1
// and 172, a kept request and the whole long ack — and what the ring did
// for it: routed/op is the servers' Routed increments, the hops the store
// was forwarded, and handled/op the servers that handled it, the one the
// client sent it to and one a hop (TestRoutedStoreMetered holds the servers'
// own tag="insert" counts to that sum). Warm they are 0 and 1.
func BenchmarkClientInsert(b *testing.B) {
	for _, n := range []int{8, 32} {
		for _, temp := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("n%d/%s", n, temp), func(b *testing.B) {
				cl, c, reg := benchClient(b, n)
				// Fill the view and dial every owner outside the timer.
				for i := 0; i < 16*n || len(c.View()) < n; i++ {
					if err := c.Insert(1, core.ItemID(fmt.Sprint("warm-", i))); err != nil {
						b.Fatalf("insert: %v", err)
					}
				}
				servers := cl.Servers()
				x0, bytes, routed := outExchanges(reg), wireBytes(reg), routedTotal(servers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if temp == "cold" {
						c.view.arcs = nil
					}
					if err := c.Insert(1, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
						b.Fatalf("insert %d: %v", i, err)
					}
				}
				b.StopTimer()
				ops := float64(b.N)
				exchanges, hops := float64(outExchanges(reg)-x0), float64(routedTotal(servers)-routed)
				b.ReportMetric(exchanges/ops, "exchanges/op")
				b.ReportMetric(float64(wireBytes(reg)-bytes)/ops, "wire-B/op")
				b.ReportMetric(hops/ops, "routed/op")
				b.ReportMetric((exchanges+hops)/ops, "handled/op")
			})
		}
	}
}

// benchClient starts a converged n-server loopback cluster and an
// instrumented client entering it at the first server, at the repo
// benchmark's geometry.
func benchClient(b *testing.B, n int) (*Cluster, *Client, *metrics.Registry) {
	cl, err := NewCluster(sim.NewEnv(1), n, chord.ProtocolConfig{})
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	b.Cleanup(cl.Close)
	c, reg := storeClient(b, cl.Servers()[0].Addr(), 7)
	return cl, c, reg
}

// wireBytes is what a client's exchanges have moved, both directions.
func wireBytes(reg *metrics.Registry) uint64 {
	return reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", "out")).Value() +
		reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", "in")).Value()
}
