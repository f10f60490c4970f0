// Package histogram builds and reconstructs histograms over data stored
// in a peer-to-peer overlay using Distributed Hash Sketches (§4.3 of the
// paper): each bucket of the histogram is one DHS metric, nodes record
// the tuples they store under the metric of the bucket the tuple's
// attribute falls in, and any node can later reconstruct the whole
// histogram in a single multi-dimensional counting pass whose hop cost is
// independent of the number of buckets.
//
// The reconstructed histograms drive the selectivity estimation of
// package optimizer, porting the classic histogram-based query
// optimization toolbox into the internet-scale setting.
package histogram

import (
	"fmt"
	"sort"

	"dhsketch/internal/core"
	"dhsketch/internal/dht"
)

// Spec describes a histogram over one attribute of one relation. Either
// the equi-width fields (Min, Max, Buckets) are set, or Boundaries lists
// explicit ascending bucket lower bounds for arbitrary histograms
// ("provided that the bucket boundaries are constant and known in
// advance", §4.3).
type Spec struct {
	// Relation and Attribute name what is summarized; they namespace the
	// bucket metric identifiers.
	Relation  string
	Attribute string

	// Min and Max bound the attribute domain [Min, Max] for equi-width
	// histograms.
	Min, Max int
	// Buckets is the equi-width bucket count I.
	Buckets int

	// Boundaries, if non-nil, overrides the equi-width layout: bucket i
	// covers [Boundaries[i], Boundaries[i+1]). Must be strictly
	// ascending. The last bucket covers [Boundaries[last], End) when End
	// is set, and is open-ended otherwise.
	Boundaries []int

	// End, if non-zero, is the exclusive upper bound of the final
	// boundary-list bucket, enabling within-bucket interpolation there.
	End int
}

// Validate checks the spec's consistency.
func (s Spec) Validate() error {
	if s.Relation == "" {
		return fmt.Errorf("histogram: spec needs a relation name")
	}
	if s.Boundaries != nil {
		if len(s.Boundaries) < 1 {
			return fmt.Errorf("histogram: empty boundary list")
		}
		for i := 1; i < len(s.Boundaries); i++ {
			if s.Boundaries[i] <= s.Boundaries[i-1] {
				return fmt.Errorf("histogram: boundaries not strictly ascending at %d", i)
			}
		}
		if s.End != 0 && s.End <= s.Boundaries[len(s.Boundaries)-1] {
			return fmt.Errorf("histogram: End %d not beyond the last boundary", s.End)
		}
		return nil
	}
	if s.Buckets < 1 {
		return fmt.Errorf("histogram: bucket count %d", s.Buckets)
	}
	if s.Max < s.Min {
		return fmt.Errorf("histogram: empty domain [%d,%d]", s.Min, s.Max)
	}
	return nil
}

// NumBuckets returns the number of buckets I.
func (s Spec) NumBuckets() int {
	if s.Boundaries != nil {
		return len(s.Boundaries)
	}
	return s.Buckets
}

// Width returns the equi-width bucket size S = ⌈(max−min+1)/I⌉.
func (s Spec) Width() int {
	domain := s.Max - s.Min + 1
	w := domain / s.Buckets
	if domain%s.Buckets != 0 {
		w++
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BucketOf returns the bucket index of an attribute value. Values outside
// the domain clamp to the edge buckets.
func (s Spec) BucketOf(value int) int {
	if s.Boundaries != nil {
		// Last boundary ≤ value (sort.Search for first boundary > value).
		i := sort.SearchInts(s.Boundaries, value+1) - 1
		if i < 0 {
			return 0
		}
		return i
	}
	b := (value - s.Min) / s.Width()
	if b < 0 {
		return 0
	}
	if b >= s.Buckets {
		return s.Buckets - 1
	}
	return b
}

// Bounds returns bucket b's half-open value range [lo, hi). The final
// bucket of a boundary-list histogram reports hi = lo (open-ended).
func (s Spec) Bounds(b int) (lo, hi int) {
	if s.Boundaries != nil {
		lo = s.Boundaries[b]
		switch {
		case b+1 < len(s.Boundaries):
			hi = s.Boundaries[b+1]
		case s.End > lo:
			hi = s.End
		default:
			hi = lo // open-ended
		}
		return lo, hi
	}
	w := s.Width()
	return s.Min + b*w, s.Min + (b+1)*w
}

// Covered returns the fraction of bucket b's values that lo ≤ v ≤ hi
// covers: the overlap's share of the bucket's width, and for an
// open-ended final bucket 1 when hi reaches it, else 0.
func (s Spec) Covered(b, lo, hi int) float64 {
	blo, bhi := s.Bounds(b)
	if bhi <= blo {
		if hi >= blo {
			return 1
		}
		return 0
	}
	l, r := max(lo, blo), min(hi+1, bhi)
	if r <= l {
		return 0
	}
	return float64(r-l) / float64(bhi-blo)
}

// MetricFor returns the DHS metric identifier of bucket b. All nodes
// derive the same identifiers from the shared, constant spec.
func (s Spec) MetricFor(b int) uint64 {
	return core.MetricID(fmt.Sprintf("hist|%s|%s|%d", s.Relation, s.Attribute, b))
}

// Metrics returns the metric identifiers of all buckets in order.
func (s Spec) Metrics() []uint64 {
	out := make([]uint64, s.NumBuckets())
	for b := range out {
		out[b] = s.MetricFor(b)
	}
	return out
}

// Builder records tuples into the DHS under their bucket's metric.
type Builder struct {
	dhs  *core.DHS
	spec Spec
}

// NewBuilder validates the spec and returns a Builder over the DHS.
func NewBuilder(d *core.DHS, spec Spec) (*Builder, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Builder{dhs: d, spec: spec}, nil
}

// Spec returns the histogram layout the builder records under.
func (b *Builder) Spec() Spec { return b.spec }

// Record registers one tuple, originating at src (the node storing the
// tuple). The cost is one DHS insertion.
func (b *Builder) Record(src dht.Node, tupleID uint64, value int) (core.InsertCost, error) {
	metric := b.spec.MetricFor(b.spec.BucketOf(value))
	return b.dhs.InsertFrom(src, metric, tupleID)
}

// RecordBulk registers many tuples from one node, grouping the DHS
// insertions per bucket so each bucket costs at most k lookups.
func (b *Builder) RecordBulk(src dht.Node, ids []uint64, values []int) (core.InsertCost, error) {
	if len(ids) != len(values) {
		return core.InsertCost{}, fmt.Errorf("histogram: %d ids vs %d values", len(ids), len(values))
	}
	byBucket := make(map[int][]uint64)
	for i, id := range ids {
		bk := b.spec.BucketOf(values[i])
		byBucket[bk] = append(byBucket[bk], id)
	}
	var total core.InsertCost
	for bk := 0; bk < b.spec.NumBuckets(); bk++ {
		group, ok := byBucket[bk]
		if !ok {
			continue
		}
		c, err := b.dhs.BulkInsertFrom(src, b.spec.MetricFor(bk), group)
		total.Lookups += c.Lookups
		total.Hops += c.Hops
		total.Bytes += c.Bytes
		total.Retries += c.Retries
		total.ReplicasLost += c.ReplicasLost
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Histogram is a reconstructed histogram: estimated per-bucket distinct
// counts plus the reconstruction cost.
type Histogram struct {
	Spec   Spec
	Counts []float64
	Cost   core.CountCost
}

// Reconstruct estimates every bucket's cardinality in one multi-
// dimensional counting pass from node src. The hop cost matches a
// single-metric count; only reply bytes grow with the bucket count
// (§4.3: "the hop-count cost is independent of the number of buckets and
// of tuples in the relation, and even independent of the number of
// bitmaps").
func Reconstruct(d *core.DHS, spec Spec, src dht.Node) (*Histogram, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ests, err := d.CountAllFrom(src, spec.Metrics())
	if err != nil {
		return nil, err
	}
	h := &Histogram{Spec: spec, Counts: make([]float64, len(ests))}
	for i, est := range ests {
		h.Counts[i] = est.Value
	}
	h.Cost = ests[0].Cost // pass cost is indivisible across buckets
	return h, nil
}

// FromCounts wraps exact per-bucket counts in a Histogram, for ground
// truth comparisons and for feeding the optimizer exact statistics.
func FromCounts(spec Spec, counts []int) *Histogram {
	h := &Histogram{Spec: spec, Counts: make([]float64, len(counts))}
	for i, c := range counts {
		h.Counts[i] = float64(c)
	}
	return h
}

// Total returns the estimated relation cardinality (sum over buckets).
func (h *Histogram) Total() float64 {
	var s float64
	for _, c := range h.Counts {
		s += c
	}
	return s
}

// SelectivityEq estimates the fraction of tuples with attribute = v,
// assuming uniformity within the bucket.
func (h *Histogram) SelectivityEq(v int) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	b := h.Spec.BucketOf(v)
	lo, hi := h.Spec.Bounds(b)
	width := hi - lo
	if width < 1 {
		width = 1
	}
	return h.Counts[b] / float64(width) / total
}

// SelectivityRange estimates the fraction of tuples with lo ≤ attr ≤ hi,
// interpolating linearly within partially covered buckets (Spec.Covered).
func (h *Histogram) SelectivityRange(lo, hi int) float64 {
	total := h.Total()
	if total == 0 || hi < lo {
		return 0
	}
	var covered float64
	for b := range h.Spec.NumBuckets() {
		covered += h.Counts[b] * h.Spec.Covered(b, lo, hi)
	}
	return covered / total
}
