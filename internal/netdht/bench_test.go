package netdht

import (
	"fmt"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// BenchmarkClientCountUncached is the ladder's rung for one uncached
// Algorithm-1 scan over the wire: Client.Count against a converged
// loopback Cluster holding one loaded metric, at the repo benchmark's
// geometry (k=16, m=64, sLL, lim=5). Beside ns/op it reports what the
// scan cost in exchanges and bytes, read from the client's own
// netdht_out_* series: find_succ/op is the number the segment map
// lowers, probes/op the evidence gathered, which it must not change.
func BenchmarkClientCountUncached(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			cl, err := NewCluster(sim.NewEnv(1), n, chord.ProtocolConfig{})
			if err != nil {
				b.Fatalf("NewCluster: %v", err)
			}
			b.Cleanup(cl.Close)
			reg := metrics.New()
			c, err := NewClient(ClientConfig{
				Entry: cl.Servers()[0].Addr(), K: 16, M: 64, Kind: sketch.KindSuperLogLog,
				Lim: 5, Seed: 7, Metrics: reg,
			})
			if err != nil {
				b.Fatalf("NewClient: %v", err)
			}
			b.Cleanup(c.Close)
			for i := 0; i < 2000; i++ {
				if err := c.Insert(1, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
					b.Fatalf("insert %d: %v", i, err)
				}
			}
			wireBytes := func() uint64 {
				return reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", "out")).Value() +
					reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", "in")).Value()
			}

			lookups, probes, bytes := outRPCs(reg, "find_succ"), outRPCs(reg, "probe"), wireBytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := c.Count(1); err != nil || res.Degraded {
					b.Fatalf("Count = %+v, %v", res, err)
				}
			}
			b.StopTimer()
			ops := float64(b.N)
			b.ReportMetric(float64(outRPCs(reg, "find_succ")-lookups)/ops, "find_succ/op")
			b.ReportMetric(float64(outRPCs(reg, "probe")-probes)/ops, "probes/op")
			b.ReportMetric(float64(wireBytes()-bytes)/ops, "wire-B/op")
		})
	}
}
