package histogram

import (
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/faultdht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/stats"
	"dhsketch/internal/workload"
)

func equiSpec(buckets int) Spec {
	return Spec{Relation: "Q", Attribute: "a", Min: 1, Max: 10000, Buckets: buckets}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		equiSpec(100),
		{Relation: "R", Boundaries: []int{0, 10, 100}},
		{Relation: "R", Min: 5, Max: 5, Buckets: 1},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{},                          // no relation
		{Relation: "R", Buckets: 0}, // no buckets
		{Relation: "R", Min: 10, Max: 1, Buckets: 2},
		{Relation: "R", Boundaries: []int{}}, // empty boundaries
		{Relation: "R", Boundaries: []int{5, 5}},
		{Relation: "R", Boundaries: []int{5, 4}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestEquiWidthBuckets(t *testing.T) {
	s := equiSpec(100) // width 100: [1,101), [101,201), ...
	if s.Width() != 100 || s.NumBuckets() != 100 {
		t.Fatalf("Width=%d NumBuckets=%d", s.Width(), s.NumBuckets())
	}
	cases := []struct{ v, b int }{
		{1, 0}, {100, 0}, {101, 1}, {9999, 99}, {10000, 99},
		{-5, 0},     // clamps low
		{20000, 99}, // clamps high
	}
	for _, c := range cases {
		if got := s.BucketOf(c.v); got != c.b {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.b)
		}
	}
	lo, hi := s.Bounds(0)
	if lo != 1 || hi != 101 {
		t.Errorf("Bounds(0) = [%d,%d)", lo, hi)
	}
}

func TestBucketOfRoundTrips(t *testing.T) {
	s := equiSpec(33) // domain 10000 over 33 buckets: width 304
	for v := s.Min; v <= s.Max; v += 17 {
		b := s.BucketOf(v)
		lo, hi := s.Bounds(b)
		if v < lo || v >= hi {
			t.Fatalf("value %d assigned bucket %d = [%d,%d)", v, b, lo, hi)
		}
	}
}

func TestBoundaryListBuckets(t *testing.T) {
	s := Spec{Relation: "R", Boundaries: []int{0, 10, 100, 1000}}
	cases := []struct{ v, b int }{
		{-3, 0}, {0, 0}, {9, 0}, {10, 1}, {99, 1}, {100, 2}, {999, 2}, {1000, 3}, {99999, 3},
	}
	for _, c := range cases {
		if got := s.BucketOf(c.v); got != c.b {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.b)
		}
	}
	if s.NumBuckets() != 4 {
		t.Errorf("NumBuckets = %d", s.NumBuckets())
	}
	lo, hi := s.Bounds(1)
	if lo != 10 || hi != 100 {
		t.Errorf("Bounds(1) = [%d,%d)", lo, hi)
	}
}

func TestMetricsDistinctAndStable(t *testing.T) {
	s := equiSpec(100)
	ms := s.Metrics()
	seen := map[uint64]bool{}
	for _, m := range ms {
		if seen[m] {
			t.Fatal("duplicate bucket metric")
		}
		seen[m] = true
	}
	// Another relation's buckets must not collide.
	s2 := s
	s2.Relation = "R"
	for _, m := range s2.Metrics() {
		if seen[m] {
			t.Fatal("metrics collide across relations")
		}
	}
	if s.MetricFor(7) != equiSpec(100).MetricFor(7) {
		t.Error("metric IDs not stable")
	}
}

// buildTestHistogram populates a DHS histogram over a Zipf relation and
// returns the reconstruction plus the exact counts.
func buildTestHistogram(t *testing.T, m, buckets, tuples int) (*Histogram, []int) {
	t.Helper()
	env := sim.NewEnv(5)
	ring := chord.New(env, 128)
	d, err := core.New(core.Config{Overlay: ring, Env: env, M: m, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	rel := workload.Relation{Name: "Q", Tuples: tuples, AttrMin: 1, AttrMax: 10000, Theta: 0.7}
	spec := Spec{Relation: rel.Name, Attribute: "a", Min: rel.AttrMin, Max: rel.AttrMax, Buckets: buckets}
	b, err := NewBuilder(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(rel, 5)
	nodes := ring.Nodes()
	rng := env.Derive("placement")
	for {
		tup, ok := gen.Next()
		if !ok {
			break
		}
		src := nodes[rng.IntN(len(nodes))]
		if _, err := b.Record(src, tup.ID, tup.Attr); err != nil {
			t.Fatal(err)
		}
	}
	h, err := Reconstruct(d, spec, ring.RandomNode())
	if err != nil {
		t.Fatal(err)
	}
	return h, workload.ExactHistogram(rel, 5, buckets)
}

func TestReconstructAccuracy(t *testing.T) {
	// Per-cell error in the spirit of §5.2: with a skewed Zipf input the
	// big buckets must come back accurately. Small buckets sit below the
	// sketch floor; score only cells with enough mass (the paper's ~7%
	// per-cell figure likewise reflects populated cells).
	h, exact := buildTestHistogram(t, 64, 20, 200000)
	var errs []float64
	for i, want := range exact {
		if want < 2000 {
			continue
		}
		errs = append(errs, stats.AbsRelErr(h.Counts[i], float64(want)))
	}
	if len(errs) < 5 {
		t.Fatalf("only %d populated cells", len(errs))
	}
	if mean := stats.Mean(errs); mean > 0.35 {
		t.Errorf("mean per-cell error %.3f", mean)
	}
	// The total must track the relation cardinality.
	if e := stats.AbsRelErr(h.Total(), 200000); e > 0.25 {
		t.Errorf("total estimate off by %.3f", e)
	}
}

func TestReconstructCostIndependentOfBuckets(t *testing.T) {
	// §4.3: reconstruction hop cost must not scale with bucket count.
	env := sim.NewEnv(9)
	ring := chord.New(env, 128)
	d, err := core.New(core.Config{Overlay: ring, Env: env, M: 64, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	costs := map[int]int64{}
	for _, buckets := range []int{10, 100} {
		spec := Spec{Relation: fmt.Sprintf("Q%d", buckets), Attribute: "a", Min: 1, Max: 10000, Buckets: buckets}
		b, _ := NewBuilder(d, spec)
		rng := env.Derive(fmt.Sprintf("b%d", buckets))
		nodes := ring.Nodes()
		for i := 0; i < 50000; i++ {
			src := nodes[rng.IntN(len(nodes))]
			if _, err := b.Record(src, workload.TupleID(spec.Relation, i), 1+rng.IntN(10000)); err != nil {
				t.Fatal(err)
			}
		}
		h, err := Reconstruct(d, spec, ring.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		costs[buckets] = h.Cost.Hops
	}
	if costs[100] > 2*costs[10] {
		t.Errorf("hop cost scaled with buckets: %v", costs)
	}
}

func TestRecordBulkMatchesRecord(t *testing.T) {
	// Bulk and per-item recording must produce the same global set of
	// (metric, vector, bit) tuples; reconstructed estimates can differ
	// because bulk concentrates tuple placement (see the caveat on
	// core.DHS.BulkInsertFrom). RecordBulk's cost is every field of its
	// buckets' bulk insertions summed — under faults too, where retries and
	// lost replicas are part of it.
	cases := []struct {
		name            string
		seed            uint64
		faults          faultdht.Config
		tuples, buckets int
		replication     int
	}{
		{name: "clean", seed: 11, tuples: 2000, buckets: 4},
		{name: "faulty", seed: 12, faults: faultdht.Config{DropProb: 0.3}, tuples: 3000, buckets: 10, replication: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(faults faultdht.Config) (*core.DHS, *chord.Ring) {
				env := sim.NewEnv(tc.seed)
				ring := chord.New(env, 64)
				var overlay dht.Overlay = ring
				if faults.Active() {
					overlay = faultdht.New(ring, env, faults)
				}
				d, err := core.New(core.Config{Overlay: overlay, Env: env, M: 16, K: 20, Kind: sketch.KindPCSA, Replication: tc.replication})
				if err != nil {
					t.Fatal(err)
				}
				return d, ring
			}
			spec := Spec{Relation: "B", Attribute: "a", Min: 1, Max: 100, Buckets: tc.buckets}

			ids := make([]uint64, tc.tuples)
			values := make([]int, tc.tuples)
			for i := range ids {
				ids[i] = workload.TupleID("B", i)
				values[i] = 1 + i%100
			}

			bitSet := func(r *chord.Ring) map[string]bool {
				set := map[string]bool{}
				for _, n := range r.Nodes() {
					st, ok := n.App().(*core.Store)
					if !ok {
						continue
					}
					for _, k := range st.Keys(0) { // the ring holds the spec's metrics and nothing else
						set[fmt.Sprintf("%d/%d/%d", k.Metric, k.Vector, k.Bit)] = true
					}
				}
				return set
			}

			// The per-item reference is recorded on a clean network: a
			// RecordBulk that returns no error has lost no bit to faults.
			d1, r1 := mk(faultdht.Config{})
			b1, _ := NewBuilder(d1, spec)
			src1 := r1.Nodes()[0]
			for i := range ids {
				if _, err := b1.Record(src1, ids[i], values[i]); err != nil {
					t.Fatal(err)
				}
			}

			d2, r2 := mk(tc.faults)
			b2, _ := NewBuilder(d2, spec)
			src2 := r2.Nodes()[0]
			cost, err := b2.RecordBulk(src2, ids, values)
			if err != nil {
				t.Fatal(err)
			}

			s1, s2 := bitSet(r1), bitSet(r2)
			if len(s1) != len(s2) {
				t.Fatalf("bit sets differ in size: %d vs %d", len(s1), len(s2))
			}
			for k := range s1 {
				if !s2[k] {
					t.Fatalf("bulk recording missing bit %s", k)
				}
			}
			// Bulk grouping bounds lookups by buckets × (k+1).
			if cost.Lookups > spec.Buckets*(int(d2.MaxBit())+1) {
				t.Errorf("bulk lookups %d exceed bound", cost.Lookups)
			}

			// The same buckets bulk-inserted one by one into a twin world,
			// in RecordBulk's order, cost what RecordBulk reports.
			d3, r3 := mk(tc.faults)
			byBucket := make([][]uint64, spec.NumBuckets())
			for i, id := range ids {
				bk := spec.BucketOf(values[i])
				byBucket[bk] = append(byBucket[bk], id)
			}
			var want core.InsertCost
			for bk, group := range byBucket {
				if len(group) == 0 {
					continue
				}
				c, err := d3.BulkInsertFrom(r3.Nodes()[0], spec.MetricFor(bk), group)
				if err != nil {
					t.Fatal(err)
				}
				want.Lookups += c.Lookups
				want.Hops += c.Hops
				want.Bytes += c.Bytes
				want.Retries += c.Retries
				want.ReplicasLost += c.ReplicasLost
			}
			if cost != want {
				t.Errorf("RecordBulk cost %+v, its buckets' bulk insertions %+v", cost, want)
			}
			if tc.faults.Active() && (cost.Retries == 0 || cost.ReplicasLost == 0) {
				t.Errorf("cost %+v under %+v shows no retries or lost replicas", cost, tc.faults)
			}

			if _, err := b2.RecordBulk(src2, ids, values[:10]); err == nil {
				t.Error("mismatched slice lengths should fail")
			}
		})
	}
}

func TestRecordBulkManySourcesReconstructs(t *testing.T) {
	// In its intended regime — every node bulk-inserting its own share —
	// bulk recording supports accurate reconstruction.
	env := sim.NewEnv(13)
	ring := chord.New(env, 64)
	d, err := core.New(core.Config{Overlay: ring, Env: env, M: 16, K: 20, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Relation: "BB", Attribute: "a", Min: 1, Max: 100, Buckets: 2}
	b, _ := NewBuilder(d, spec)
	nodes := ring.Nodes()
	const n = 40000
	perNode := n / len(nodes)
	for ni, src := range nodes {
		ids := make([]uint64, perNode)
		values := make([]int, perNode)
		for i := range ids {
			row := ni*perNode + i
			ids[i] = workload.TupleID("BB", row)
			values[i] = 1 + row%100
		}
		if _, err := b.RecordBulk(src, ids, values); err != nil {
			t.Fatal(err)
		}
	}
	h, err := Reconstruct(d, spec, ring.RandomNode())
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range h.Counts {
		want := float64(n) / 2
		if e := stats.AbsRelErr(got, want); e > 0.8 {
			t.Errorf("bucket %d: estimate %.0f vs %.0f (err %.2f)", i, got, want, e)
		}
	}
}

func TestSelectivityEq(t *testing.T) {
	spec := Spec{Relation: "S", Attribute: "a", Min: 1, Max: 100, Buckets: 10}
	h := FromCounts(spec, []int{100, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// All mass in bucket 0 (values 1..10), uniform within the bucket.
	if got := h.SelectivityEq(5); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("SelectivityEq(5) = %v, want 0.1", got)
	}
	if got := h.SelectivityEq(50); got != 0 {
		t.Errorf("SelectivityEq(50) = %v, want 0", got)
	}
	empty := FromCounts(spec, make([]int, 10))
	if empty.SelectivityEq(5) != 0 {
		t.Error("empty histogram should estimate 0")
	}
}

func TestSelectivityRange(t *testing.T) {
	spec := Spec{Relation: "S", Attribute: "a", Min: 1, Max: 100, Buckets: 10}
	counts := []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	h := FromCounts(spec, counts)
	cases := []struct {
		lo, hi int
		want   float64
	}{
		{1, 100, 1.0},
		{1, 10, 0.1},  // exactly bucket 0
		{1, 5, 0.05},  // half of bucket 0
		{11, 30, 0.2}, // buckets 1-2
		{96, 100, 0.05},
		{200, 300, 0}, // outside domain
		{50, 40, 0},   // inverted
	}
	for _, c := range cases {
		if got := h.SelectivityRange(c.lo, c.hi); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SelectivityRange(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestSelectivityRangeBoundaryHistogram(t *testing.T) {
	s := Spec{Relation: "S", Boundaries: []int{0, 10, 100}}
	h := FromCounts(s, []int{10, 0, 90}) // open-ended last bucket holds 90
	if got := h.SelectivityRange(0, 9); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("range over first bucket = %v", got)
	}
	if got := h.SelectivityRange(100, 1000000); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("range over open bucket = %v", got)
	}
}

func TestHistogramTotal(t *testing.T) {
	spec := Spec{Relation: "S", Attribute: "a", Min: 1, Max: 10, Buckets: 2}
	h := FromCounts(spec, []int{3, 4})
	if h.Total() != 7 {
		t.Errorf("Total = %v", h.Total())
	}
}
