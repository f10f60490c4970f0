package serve_test

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"

	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
	"dhsketch/internal/sketch"
)

// The serving benchmarks measure sustained frontend throughput against
// a real loopback ring: a fixed worker fleet issues closed-loop queries
// (Zipf-popular metrics, like cmd/dhsload) for a fixed window per
// iteration, and the run reports qps and latency percentiles via
// b.ReportMetric. BenchmarkServeNaive is the baseline every request
// pays — a full ring fan-out — and BenchmarkServeFrontend is the same
// fleet with the cache and coalescing on; the qps ratio between them is
// the acceptance number for the PR-10 serving layer (≥10× on loopback).
// With the cache on they also report fanouts/ttl, the ring fan-outs per
// cache lifetime once the first misses have merged: about one, however many
// metrics are kept warm (DESIGN.md §16 "Cohort refresh"), where one per
// metric is what a miss that refreshes only itself costs.

const (
	benchWorkers = 16
	benchWindow  = 400 * time.Millisecond
)

func benchServe(b *testing.B, cfg serve.Config, benchMetrics int) {
	srv, err := netdht.NewServer("127.0.0.1:0", netdht.Options{Name: "bench"})
	if err != nil {
		b.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	client, err := netdht.NewClient(netdht.ClientConfig{
		Entry: srv.Addr(), K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 3, Seed: 7,
	})
	if err != nil {
		b.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	metricIDs := make([]uint64, benchMetrics)
	for i := range metricIDs {
		metricIDs[i] = core.MetricID(fmt.Sprintf("bench-%d", i))
		for j := 0; j < 60; j++ {
			if err := client.Insert(metricIDs[i], uint64(i*1000+j)*0x9e3779b97f4a7c15+5); err != nil {
				b.Fatalf("insert: %v", err)
			}
		}
	}
	reg := metrics.New()
	cfg.Metrics = reg
	f := serve.New(client, cfg)
	fanouts := func() uint64 {
		return reg.Histogram("dhsd_fanout_seconds", "", metrics.DefLatencyBuckets).Count()
	}

	// drive runs the worker fleet against f for window and returns every
	// request's latency.
	drive := func(window time.Duration) (all []time.Duration) {
		samples := make([][]time.Duration, benchWorkers)
		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		for w := 0; w < benchWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(w)+1, 0x6a09e667f3bcc908))
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(benchMetrics-1))
				for time.Now().Before(deadline) {
					m := metricIDs[zipf.Uint64()]
					start := time.Now()
					if _, err := f.Count(m); err != nil {
						b.Errorf("Count: %v", err)
						return
					}
					samples[w] = append(samples[w], time.Since(start))
				}
			}(w)
		}
		wg.Wait()
		for _, s := range samples {
			all = append(all, s...)
		}
		return all
	}

	drive(2 * cfg.CacheTTL) // the first misses, one per metric, merge outside the timer
	var all []time.Duration
	before := fanouts()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		all = append(all, drive(benchWindow)...)
	}
	b.StopTimer()

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	window := time.Duration(b.N) * benchWindow
	b.ReportMetric(float64(len(all))/window.Seconds(), "qps")
	b.ReportMetric(pctMs(all, 0.50), "p50-ms")
	b.ReportMetric(pctMs(all, 0.99), "p99-ms")
	if cfg.CacheTTL > 0 {
		b.ReportMetric(float64(fanouts()-before)*cfg.CacheTTL.Seconds()/window.Seconds(), "fanouts/ttl")
	}
}

func pctMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// BenchmarkServeNaive: every request is a direct ring fan-out (the
// pre-frontend serving model) under admission control only.
func BenchmarkServeNaive(b *testing.B) {
	benchServe(b, serve.Config{}, 8)
}

// BenchmarkServeFrontend: the dhsd default serving stack — 250ms
// estimate cache plus singleflight coalescing — over the 8 Zipf-popular
// metrics of the naive baseline, and over 64, every one of them asked for
// many times per cache lifetime.
func BenchmarkServeFrontend(b *testing.B) {
	for _, hot := range []int{8, 64} {
		b.Run(fmt.Sprintf("metrics%d", hot), func(b *testing.B) {
			benchServe(b, serve.Config{CacheTTL: 250 * time.Millisecond, Coalesce: true}, hot)
		})
	}
}
