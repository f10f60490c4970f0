package dhsketch_test

import (
	"fmt"
	"math"
	"testing"

	"dhsketch"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	net := dhsketch.NewNetwork(42, 128)
	d, err := dhsketch.New(net, dhsketch.Config{M: 32})
	if err != nil {
		t.Fatal(err)
	}
	metric := dhsketch.MetricID("api-test")
	const n = 40000
	for i := 0; i < n; i++ {
		if _, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("it-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(est.Value-n) / n; e > 0.6 {
		t.Errorf("estimate %v for n=%d", est.Value, n)
	}
	if est.Cost.Hops <= 0 || est.Cost.NodesVisited <= 0 {
		t.Error("cost accounting missing")
	}
	if net.TrafficTotal().Messages == 0 {
		t.Error("network traffic meter untouched")
	}
}

func TestPublicAPIEstimatorFamilies(t *testing.T) {
	net := dhsketch.NewNetwork(7, 64)
	p, err := dhsketch.NewPCSA(net, dhsketch.Config{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	h, err := dhsketch.NewWithKind(net, dhsketch.Config{M: 16}, dhsketch.HyperLogLog)
	if err != nil {
		t.Fatal(err)
	}
	metric := dhsketch.MetricID("families")
	for i := 0; i < 20000; i++ {
		// Insert once (the distributed state is shared by both handles).
		if _, err := p.Insert(metric, dhsketch.ItemID(fmt.Sprintf("f-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pe, err := p.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	he, err := h.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	for name, est := range map[string]float64{"PCSA": pe.Value, "HLL": he.Value} {
		if e := math.Abs(est-20000) / 20000; e > 0.7 {
			t.Errorf("%s estimate %v", name, est)
		}
	}
}

func TestPublicAPIHistogramAndOptimizer(t *testing.T) {
	net := dhsketch.NewNetwork(9, 64)
	d, err := dhsketch.New(net, dhsketch.Config{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	spec := dhsketch.HistogramSpec{Relation: "R", Attribute: "a", Min: 1, Max: 100, Buckets: 4}
	b, err := dhsketch.NewHistogramBuilder(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := net.Nodes()
	for i := 0; i < 20000; i++ {
		src := nodes[i%len(nodes)]
		if _, err := b.Record(src, dhsketch.ItemID(fmt.Sprintf("h-%d", i)), 1+i%100); err != nil {
			t.Fatal(err)
		}
	}
	h, err := dhsketch.ReconstructHistogram(d, spec, net.RandomNode())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 4 {
		t.Fatalf("buckets = %d", len(h.Counts))
	}
	if e := math.Abs(h.Total()-20000) / 20000; e > 0.7 {
		t.Errorf("histogram total %v", h.Total())
	}

	// Optimizer over mixed exact/DHS statistics.
	exact := dhsketch.HistogramFromCounts(spec, []int{5000, 5000, 5000, 5000})
	tables := []dhsketch.TableStats{
		{Name: "R", Hist: h, TupleBytes: 100},
		{Name: "S", Hist: exact, TupleBytes: 200},
		{Name: "T", Hist: exact, TupleBytes: 50},
	}
	plan := dhsketch.OptimizeJoin(tables)
	naiveWorst := dhsketch.LeftDeepJoin(tables, []int{1, 0, 2})
	if plan.Bytes <= 0 || plan.Bytes > naiveWorst.Bytes+1e-6 {
		t.Errorf("optimized plan %v vs left-deep %v", plan.Bytes, naiveWorst.Bytes)
	}
}

func TestPublicAPIFailuresAndClock(t *testing.T) {
	net := dhsketch.NewNetwork(11, 64)
	d, err := dhsketch.New(net, dhsketch.Config{M: 16, TTL: 10})
	if err != nil {
		t.Fatal(err)
	}
	metric := dhsketch.MetricID("ttl")
	for i := 0; i < 5000; i++ {
		if _, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("x-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	net.FailNodes(8)
	if len(net.Nodes()) != 56 {
		t.Errorf("nodes after failures = %d", len(net.Nodes()))
	}
	net.AdvanceClock(11)
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value > 500 {
		t.Errorf("estimate %v after TTL expiry", est.Value)
	}
}

func TestPublicAPIRetryLimit(t *testing.T) {
	if got := dhsketch.RetryLimit(64, 64, 0.99, 1, 0); got < 1 || got > 5 {
		t.Errorf("RetryLimit = %d, want the paper's ≤ 5 at alpha=1", got)
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	net := dhsketch.NewNetwork(23, 128)
	fo := net.InjectFaults(dhsketch.FaultConfig{DropProb: 0.15, TransientFrac: 0.1})
	d, err := dhsketch.New(net, dhsketch.Config{M: 16, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	metric := dhsketch.MetricID("faulty")
	failed := 0
	for i := 0; i < 8000; i++ {
		if _, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("f-%d", i))); err != nil {
			failed++
		}
	}
	if float64(failed)/8000 > 0.05 {
		t.Errorf("%d/8000 inserts failed despite retries", failed)
	}
	est, err := d.Count(metric)
	if err != nil {
		t.Fatalf("count errored under injected faults: %v", err)
	}
	if !est.Quality.Degraded || est.Quality.ProbesFailed == 0 {
		t.Errorf("quality not annotated: %+v", est.Quality)
	}
	if math.Abs(est.Value-8000)/8000 > 0.6 {
		t.Errorf("estimate %v far from 8000", est.Value)
	}
	st := fo.Stats()
	if st.Lost == 0 || st.Failed() == 0 {
		t.Errorf("fault layer stats empty: %+v", st)
	}
	// A network without injected faults stays pristine: no errors, no
	// degradation marks.
	clean := dhsketch.NewNetwork(23, 128)
	dClean, err := dhsketch.New(clean, dhsketch.Config{M: 16, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := dClean.Insert(metric, dhsketch.ItemID(fmt.Sprintf("c-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cleanEst, err := dClean.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if cleanEst.Quality.Degraded {
		t.Errorf("clean network marked degraded: %+v", cleanEst.Quality)
	}
}

// TestCountAllocs pins what one simulated Count allocates at the sim_scan
// geometry (N = 1024, m = 512): the scan's state and the one R that
// Estimate.R returns, and no copy of R made only for the estimator.
func TestCountAllocs(t *testing.T) {
	d, err := dhsketch.New(dhsketch.NewNetwork(1, 1024), dhsketch.Config{M: 512})
	if err != nil {
		t.Fatal(err)
	}
	metric := dhsketch.MetricID("allocs")
	for i := 0; i < 5000; i++ {
		if _, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("allocs-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Count(metric); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 11 {
		t.Errorf("a Count allocates %.0f times, want at most 11", allocs)
	}
}
