package core

import (
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// testDHS builds a ring and a DHS with the given overrides.
func testDHS(t testing.TB, seed uint64, nodes int, cfg Config) (*DHS, *chord.Ring, *sim.Env) {
	t.Helper()
	env := sim.NewEnv(seed)
	ring := chord.New(env, nodes)
	cfg.Overlay = ring
	cfg.Env = env
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, ring, env
}

// insertItems records n distinct items under the metric.
func insertItems(t testing.TB, d *DHS, metric uint64, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := d.Insert(metric, ItemID(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	env := sim.NewEnv(1)
	ring := chord.New(env, 4)
	bad := []Config{
		{Env: env},                                             // no overlay
		{Overlay: ring},                                        // no env
		{Overlay: ring, Env: env, K: 70},                       // k > L
		{Overlay: ring, Env: env, M: 3},                        // m not power of two
		{Overlay: ring, Env: env, M: -2},                       // m negative
		{Overlay: ring, Env: env, K: 8, M: 256},                // log2 m >= k
		{Overlay: ring, Env: env, Lim: -1},                     // negative lim
		{Overlay: ring, Env: env, Replication: -1},             // negative replication
		{Overlay: ring, Env: env, K: 16, M: 256, ShiftBits: 9}, // shift eats all bits
		{Overlay: ring, Env: env, TTL: -5},                     // negative TTL
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	// Defaults fill in and validate.
	d, err := New(Config{Overlay: ring, Env: env})
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	got := d.Config()
	if got.K != DefaultK || got.M != DefaultM || got.Lim != DefaultLim {
		t.Errorf("defaults not applied: %+v", got)
	}
	if d.MaxBit() != DefaultK-9 { // log2(512) = 9
		t.Errorf("MaxBit = %d", d.MaxBit())
	}
}

func TestMetricAndItemIDs(t *testing.T) {
	if MetricID("a") == MetricID("b") {
		t.Error("different names, same metric ID")
	}
	if MetricID("a") != MetricID("a") {
		t.Error("MetricID not deterministic")
	}
	if MetricID("x") == ItemID("x") {
		t.Error("metric and item namespaces collide")
	}
}

func TestInsertCountAccuracy(t *testing.T) {
	// End-to-end: for every estimator family the reconstructed estimate
	// must be within a few theoretical standard errors of the truth.
	// The configuration keeps α = n/(m·N) ≈ 24 so the lim = 5 probe
	// budget operates in its guaranteed regime (§4.1); accuracy *outside*
	// that regime is the subject of the E4 degradation experiment.
	const n = 100000
	for _, kind := range []sketch.Kind{sketch.KindPCSA, sketch.KindSuperLogLog, sketch.KindLogLog, sketch.KindHyperLogLog} {
		var errSum float64
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			d, _, _ := testDHS(t, uint64(100+trial), 64, Config{M: 64, Kind: kind})
			metric := MetricID("accuracy")
			insertItems(t, d, metric, n, fmt.Sprintf("t%d", trial))
			est, err := d.Count(metric)
			if err != nil {
				t.Fatalf("%v: Count: %v", kind, err)
			}
			errSum += math.Abs(est.Value-n) / n
		}
		avg := errSum / trials
		if limit := 3 * kind.StdError(64); avg > limit {
			t.Errorf("%v: mean |rel err| %.4f > %.4f", kind, avg, limit)
		}
	}
}

func TestDuplicateInsensitivity(t *testing.T) {
	// Re-inserting the same items must leave the distributed bit state
	// unchanged (same tuples, refreshed timestamps).
	d, _, _ := testDHS(t, 7, 64, Config{M: 32, Kind: sketch.KindSuperLogLog})
	metric := MetricID("dups")
	insertItems(t, d, metric, 5000, "dup")
	tuplesBefore := d.TotalTuples()
	est1, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	// Insert everything twice more.
	insertItems(t, d, metric, 5000, "dup")
	insertItems(t, d, metric, 5000, "dup")
	est2, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate depends only on which (vector,bit) pairs exist
	// globally, which duplicates cannot extend.
	if est1.Value != est2.Value {
		t.Errorf("duplicates changed estimate: %v → %v", est1.Value, est2.Value)
	}
	if after := d.TotalTuples(); after < tuplesBefore {
		t.Errorf("re-insertion lost tuples: %d → %d", tuplesBefore, after)
	}
}

func TestBulkInsertEquivalentBits(t *testing.T) {
	// Bulk and per-item insertion must produce the same global set of
	// (vector, bit) pairs — only the placement of tuples on nodes and
	// the message count differ.
	collect := func(d *DHS, ring *chord.Ring) map[TupleKey]bool {
		set := map[TupleKey]bool{}
		for _, n := range ring.Nodes() {
			if s, ok := n.App().(*Store); ok {
				for _, k := range s.Keys(0) {
					set[k] = true
				}
			}
		}
		return set
	}

	ids := make([]uint64, 3000)
	for i := range ids {
		ids[i] = ItemID(fmt.Sprintf("bulk-%d", i))
	}
	metric := MetricID("bulk")

	dOne, ringOne, _ := testDHS(t, 11, 64, Config{M: 16, Kind: sketch.KindPCSA})
	src := ringOne.Nodes()[0]
	for _, id := range ids {
		if _, err := dOne.InsertFrom(src, metric, id); err != nil {
			t.Fatal(err)
		}
	}

	dBulk, ringBulk, _ := testDHS(t, 11, 64, Config{M: 16, Kind: sketch.KindPCSA})
	cost, err := dBulk.BulkInsertFrom(ringBulk.Nodes()[0], metric, ids)
	if err != nil {
		t.Fatal(err)
	}

	a, b := collect(dOne, ringOne), collect(dBulk, ringBulk)
	if len(a) != len(b) {
		t.Fatalf("tuple sets differ in size: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("bulk insertion missing tuple %+v", k)
		}
	}
	// The paper's bulk bound: at most k lookups per node regardless of
	// item count.
	if cost.Lookups > int(dBulk.MaxBit())+1 {
		t.Errorf("bulk insertion used %d lookups, bound is %d", cost.Lookups, dBulk.MaxBit()+1)
	}
}

func TestInsertCostLogarithmic(t *testing.T) {
	// §3.2: insertion is O(log N) hops; average should be at most log2 N.
	d, _, _ := testDHS(t, 3, 1024, Config{M: 64})
	metric := MetricID("cost")
	var hops int64
	const n = 2000
	for i := 0; i < n; i++ {
		c, err := d.Insert(metric, ItemID(fmt.Sprintf("c-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hops += c.Hops
	}
	avg := float64(hops) / n
	if avg > math.Log2(1024) {
		t.Errorf("average insert hops %.2f > log2(N) = 10", avg)
	}
	if avg < 1 {
		t.Errorf("average insert hops %.2f suspiciously low", avg)
	}
}

func TestCountCostIndependentOfBitmaps(t *testing.T) {
	// §4.2: the hop-count cost of counting is independent of the number
	// of bitmaps. Lookups (= intervals probed) may differ slightly
	// because resolution depth depends on m, but must not scale with m.
	lookups := map[int]int{}
	for _, m := range []int{64, 512} {
		d, _, _ := testDHS(t, 5, 256, Config{M: m, Kind: sketch.KindSuperLogLog})
		metric := MetricID("dim")
		insertItems(t, d, metric, 80000, "dim")
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		lookups[m] = est.Cost.Lookups
	}
	if lookups[512] > 3*lookups[64] {
		t.Errorf("lookup count scaled with m: %v", lookups)
	}
}

func TestMultiMetricSharesProbes(t *testing.T) {
	// §4.2 multi-dimensional counting: estimating many metrics at once
	// must cost about the same hops as estimating one, not Σ per-metric.
	const nMetrics = 10
	d, ring, _ := testDHS(t, 9, 128, Config{M: 64, Kind: sketch.KindSuperLogLog})
	metrics := make([]uint64, nMetrics)
	for i := range metrics {
		metrics[i] = MetricID(fmt.Sprintf("dim-%d", i))
		insertItems(t, d, metrics[i], 20000, fmt.Sprintf("m%d", i))
	}
	src := ring.Nodes()[0]

	single, err := d.CountFrom(src, metrics[0])
	if err != nil {
		t.Fatal(err)
	}
	all, err := d.CountAllFrom(src, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != nMetrics {
		t.Fatalf("got %d estimates", len(all))
	}
	// Accuracy per metric.
	for i, est := range all {
		if e := math.Abs(est.Value-20000) / 20000; e > 0.5 {
			t.Errorf("metric %d: error %.2f", i, e)
		}
	}
	// Hop cost of the combined pass stays within a small factor of the
	// single-metric pass (not nMetrics×).
	if all[0].Cost.Hops > 3*single.Cost.Hops {
		t.Errorf("multi-metric pass cost %d hops vs single %d", all[0].Cost.Hops, single.Cost.Hops)
	}
	// All estimates report the same indivisible pass cost.
	for _, est := range all[1:] {
		if est.Cost != all[0].Cost {
			t.Error("per-metric costs differ within one pass")
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	d, _, env := testDHS(t, 13, 64, Config{M: 16, Kind: sketch.KindPCSA, TTL: 100})
	metric := MetricID("ttl")
	insertItems(t, d, metric, 10000, "ttl")
	if d.TotalTuples() == 0 {
		t.Fatal("no tuples stored")
	}
	before, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if before.Value < 1000 {
		t.Fatalf("estimate before expiry: %v", before.Value)
	}
	// Let everything age out.
	env.Clock.Advance(200)
	if got := d.TotalTuples(); got != 0 {
		t.Errorf("%d tuples survived expiry", got)
	}
	after, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	// An empty PCSA sketch estimates m/φ ≈ 1.29·m ≈ 21 — near zero
	// compared to 10000.
	if after.Value > 100 {
		t.Errorf("estimate after expiry: %v", after.Value)
	}
}

func TestRefreshKeepsAlive(t *testing.T) {
	d, _, env := testDHS(t, 14, 32, Config{M: 4, K: 16, Kind: sketch.KindPCSA, TTL: 100})
	metric := MetricID("refresh")
	id := ItemID("the-item")
	if _, err := d.Insert(metric, id); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(80)
	if _, err := d.Refresh(metric, id); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(80) // 160 > TTL from first insert, but refreshed at 80
	if d.TotalTuples() == 0 {
		t.Error("refreshed tuple expired")
	}
	env.Clock.Advance(200)
	if d.TotalTuples() != 0 {
		t.Error("tuple survived past refreshed TTL")
	}
}

func TestReplicationSurvivesFailures(t *testing.T) {
	// §3.5: with replication, counting keeps working after node
	// failures; without it, estimates degrade.
	const n = 40000
	run := func(replication int) float64 {
		d, ring, _ := testDHS(t, 17, 256, Config{M: 64, Kind: sketch.KindSuperLogLog, Replication: replication})
		metric := MetricID("ft")
		insertItems(t, d, metric, n, "ft")
		ring.FailRandom(64) // 25% of the network crashes
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(est.Value-n) / n
	}
	replicated := run(3)
	if replicated > 0.35 {
		t.Errorf("error with replication after failures: %.3f", replicated)
	}
}

func TestShiftBitsVariant(t *testing.T) {
	// §3.5 bit-shift fault tolerance: with b low bits assumed set,
	// estimates of cardinalities ≫ 2^b stay accurate.
	const n = 50000
	d, _, _ := testDHS(t, 19, 128, Config{M: 32, Kind: sketch.KindSuperLogLog, ShiftBits: 4})
	metric := MetricID("shift")
	insertItems(t, d, metric, n, "shift")
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(est.Value-n) / n; e > 3*sketch.KindSuperLogLog.StdError(32) {
		t.Errorf("shifted DHS error %.3f", e)
	}
	// Bit i is stored in interval I_{i−b}: bit b maps to I_0.
	lo, size := d.geom.Interval(4)
	if wantLo, wantSize := uint64(1)<<63, uint64(1)<<63; lo != wantLo || size != wantSize {
		t.Errorf("bit 4 interval = [%d,+%d), want [%d,+%d)", lo, size, wantLo, wantSize)
	}
}

func TestShiftSkipsLowBitInsertions(t *testing.T) {
	d, _, _ := testDHS(t, 20, 32, Config{M: 1, K: 16, Kind: sketch.KindPCSA, ShiftBits: 8})
	// An item with ρ < 8 is assumed set, never stored, and costs nothing.
	cost, err := d.Insert(MetricID("s"), 0b1) // rho = 0
	if err != nil {
		t.Fatal(err)
	}
	if cost.Lookups != 0 || d.TotalTuples() != 0 {
		t.Errorf("low-bit item was stored: %+v, tuples=%d", cost, d.TotalTuples())
	}
}

func TestShiftSpreadsBitOverMoreNodes(t *testing.T) {
	// The point of the variant: a sparse bit's placements land on more
	// distinct nodes than without the shift, removing single points of
	// failure (§3.5). Compare the number of distinct nodes holding the
	// top-most populated bit with and without shift.
	const n = 30000
	holders := func(shift uint) int {
		d, ring, _ := testDHS(t, 22, 512, Config{M: 1, K: 20, Kind: sketch.KindPCSA, ShiftBits: shift, Lim: 40})
		metric := MetricID("spread")
		insertItems(t, d, metric, n, "sp")
		// Find the highest stored bit and count its holder nodes.
		byBit := map[uint8]map[uint64]bool{}
		for _, node := range ring.Nodes() {
			if s, ok := node.App().(*Store); ok {
				for _, k := range s.Keys(0) {
					if k.Metric != metric {
						continue
					}
					if byBit[k.Bit] == nil {
						byBit[k.Bit] = map[uint64]bool{}
					}
					byBit[k.Bit][node.ID()] = true
				}
			}
		}
		// Bit around log2(n)−2 is sparse but reliably present.
		probe := uint8(12)
		return len(byBit[probe])
	}
	plain, shifted := holders(0), holders(6)
	if shifted <= plain {
		t.Errorf("shift did not spread placements: %d holders vs %d without shift", shifted, plain)
	}
}

func TestEdgeAwareCheaperSameAccuracy(t *testing.T) {
	const n = 60000
	run := func(edgeAware bool) (float64, int) {
		d, _, _ := testDHS(t, 23, 256, Config{M: 128, Kind: sketch.KindSuperLogLog, EdgeAware: edgeAware})
		metric := MetricID("edge")
		insertItems(t, d, metric, n, "edge")
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(est.Value-n) / n, est.Cost.NodesVisited
	}
	errBlind, visitedBlind := run(false)
	errAware, visitedAware := run(true)
	if visitedAware > visitedBlind {
		t.Errorf("edge-aware probing visited more nodes: %d vs %d", visitedAware, visitedBlind)
	}
	if errAware > errBlind+0.15 {
		t.Errorf("edge-aware probing lost accuracy: %.3f vs %.3f", errAware, errBlind)
	}
}

func TestCountFromDeadNodeFails(t *testing.T) {
	d, ring, _ := testDHS(t, 29, 16, Config{M: 4, K: 16})
	victim := ring.Nodes()[0]
	ring.Fail(victim)
	if _, err := d.CountFrom(victim, MetricID("x")); err == nil {
		t.Error("counting from a dead node should fail")
	}
	if _, err := d.InsertFrom(victim, MetricID("x"), ItemID("y")); err == nil {
		t.Error("inserting from a dead node should fail")
	}
}

func TestTrafficAccountingConsistent(t *testing.T) {
	// The environment's global traffic meter must see every hop the
	// operation reports.
	d, ring, env := testDHS(t, 31, 64, Config{M: 16})
	metric := MetricID("traffic")
	before := env.Traffic.Snapshot()
	var insHops int64
	for i := 0; i < 500; i++ {
		c, err := d.Insert(metric, ItemID(fmt.Sprintf("tr-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		insHops += c.Hops
	}
	src := ring.Nodes()[0]
	est, err := d.CountFrom(src, metric)
	if err != nil {
		t.Fatal(err)
	}
	delta := env.Traffic.Snapshot().Sub(before)
	if delta.Hops != insHops+est.Cost.Hops {
		t.Errorf("global hops %d != insert %d + count %d", delta.Hops, insHops, est.Cost.Hops)
	}
	if delta.Bytes <= 0 || delta.Messages <= 0 {
		t.Error("traffic meter missed bytes/messages")
	}
}

func TestStorageLoadBalance(t *testing.T) {
	// §3.1: the interval partition spreads tuples across nodes "as
	// uniform as the hash function used". With enough items every node
	// should hold some tuples, and no node should hold a large multiple
	// of the mean.
	d, _, _ := testDHS(t, 37, 128, Config{M: 256, Kind: sketch.KindSuperLogLog})
	metric := MetricID("balance")
	insertItems(t, d, metric, 200000, "bal")
	per := d.StorageBytesPerNode()
	var sum, max float64
	zero := 0
	for _, b := range per {
		f := float64(b)
		sum += f
		if f > max {
			max = f
		}
		if b == 0 {
			zero++
		}
	}
	mean := sum / float64(len(per))
	if mean == 0 {
		t.Fatal("no storage recorded")
	}
	if max/mean > 12 {
		t.Errorf("storage imbalance max/mean = %.1f", max/mean)
	}
	if zero > len(per)/2 {
		t.Errorf("%d/%d nodes hold nothing", zero, len(per))
	}
}

func TestAccessLoadBalance(t *testing.T) {
	// Access load (probes during counting) must not concentrate: the
	// design's central claim versus one-node-per-counter schemes.
	d, ring, _ := testDHS(t, 41, 128, Config{M: 64, Kind: sketch.KindSuperLogLog})
	metric := MetricID("access")
	insertItems(t, d, metric, 100000, "acc")
	for i := 0; i < 50; i++ {
		if _, err := d.Count(metric); err != nil {
			t.Fatal(err)
		}
	}
	var total, max int64
	for _, n := range ring.Nodes() {
		p := n.Counters().Snapshot().Probed
		total += p
		if p > max {
			max = p
		}
	}
	if total == 0 {
		t.Fatal("no probes recorded")
	}
	// A single-node counter would have max == total. DHS spreads probes
	// over intervals; allow concentration well below that.
	if float64(max) > 0.25*float64(total) {
		t.Errorf("one node absorbed %d of %d probes", max, total)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, CountCost) {
		d, _, _ := testDHS(t, 99, 64, Config{M: 32, Kind: sketch.KindPCSA})
		metric := MetricID("det")
		insertItems(t, d, metric, 20000, "det")
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		return est.Value, est.Cost
	}
	v1, c1 := run()
	v2, c2 := run()
	if v1 != v2 || c1 != c2 {
		t.Errorf("same seed, different outcome: %v/%+v vs %v/%+v", v1, c1, v2, c2)
	}
}

func TestCountEmptyMetric(t *testing.T) {
	d, _, _ := testDHS(t, 43, 32, Config{M: 16, Kind: sketch.KindSuperLogLog})
	est, err := d.Count(MetricID("never-inserted"))
	if err != nil {
		t.Fatal(err)
	}
	// All-empty buckets give ranks 0, so the sLL estimate collapses to
	// α̃·m₀·2⁰ ≈ 12 — the estimator's floor, far below any real count.
	if est.Value > float64(d.Config().M) {
		t.Errorf("empty metric estimate = %v, want below m", est.Value)
	}
	for _, r := range est.R {
		if r != -1 {
			t.Error("empty metric produced a resolved vector")
		}
	}
}

func TestEstimateRStatisticsPlausible(t *testing.T) {
	// The reconstructed per-vector maxima should sit near log2(n/m).
	const n, m = 131072, 16 // n/m = 8192 → expected max bit ≈ 13
	d, _, _ := testDHS(t, 47, 64, Config{M: m, Kind: sketch.KindSuperLogLog})
	metric := MetricID("rstats")
	insertItems(t, d, metric, n, "r")
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range est.R {
		if r < 8 || r > 24 {
			t.Errorf("vector %d: max bit %d implausible for n/m = 8192", j, r)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	env := sim.NewEnv(1)
	ring := chord.New(env, 1024)
	d, err := New(Config{Overlay: ring, Env: env})
	if err != nil {
		b.Fatal(err)
	}
	metric := MetricID("bench")
	ids := make([]uint64, 8192)
	for i := range ids {
		ids[i] = ItemID(fmt.Sprintf("bench-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Insert(metric, ids[i&8191]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCount(b *testing.B) {
	env := sim.NewEnv(1)
	ring := chord.New(env, 1024)
	d, err := New(Config{Overlay: ring, Env: env, M: 512, Kind: sketch.KindSuperLogLog})
	if err != nil {
		b.Fatal(err)
	}
	metric := MetricID("bench")
	for i := 0; i < 200000; i++ {
		if _, err := d.Insert(metric, ItemID(fmt.Sprintf("bc-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Count(metric); err != nil {
			b.Fatal(err)
		}
	}
}

var _ dht.Node = (*chord.Node)(nil) // interface conformance
