// Package optimizer implements histogram-based query optimization for
// multi-way equi-joins over a DHT-based query processor, the application
// the paper motivates DHS with (§4.3, §5.2): once a node has reconstructed
// DHS histograms for the joined relations — a ~1 MB, O(k·log N)-hop
// operation — choosing the cheapest join order is a purely local
// computation, and the savings in shipped bytes dwarf the reconstruction
// cost.
//
// The cost model follows the PIER/FREddies setting the paper compares
// against: every join is a distributed symmetric hash join, so evaluating
// A ⋈ B ships every tuple of both inputs to its rehash owner; a plan's
// cost is the total bytes shipped, including intermediate results.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"dhsketch/internal/histogram"
)

// TableStats bundles what the optimizer knows about one relation: its
// histogram over the join attribute (reconstructed from DHS or exact) and
// the tuple width.
type TableStats struct {
	// Name labels the relation in plans.
	Name string
	// Hist summarizes the join attribute's distribution; its Total() is
	// the relation cardinality estimate.
	Hist *histogram.Histogram
	// TupleBytes is the per-tuple payload size.
	TupleBytes float64
}

// Rows returns the estimated cardinality.
func (t TableStats) Rows() float64 { return t.Hist.Total() }

// Bytes returns the estimated relation size in bytes.
func (t TableStats) Bytes() float64 { return t.Rows() * t.TupleBytes }

// ApplyRange returns the statistics of σ[lo ≤ a ≤ hi](t): every bucket
// scaled by its overlap with the predicate range. The returned histogram
// shares t's spec; for ranges that cut through a bucket, the surviving
// mass is still attributed to the whole bucket (histograms cannot
// represent within-bucket position), so re-applying a partial-bucket
// filter scales it again — align predicates to bucket boundaries when
// composing filters.
func (t TableStats) ApplyRange(lo, hi int) TableStats {
	spec := t.Hist.Spec
	scaled := make([]float64, len(t.Hist.Counts))
	for b := range scaled {
		scaled[b] = t.Hist.Counts[b] * spec.Covered(b, lo, hi)
	}
	return TableStats{
		Name:       fmt.Sprintf("σ[%d..%d](%s)", lo, hi, t.Name),
		Hist:       &histogram.Histogram{Spec: spec, Counts: scaled},
		TupleBytes: t.TupleBytes,
	}
}

// joinStats estimates the equi-join of two inputs on the shared attribute
// under the containment-and-uniformity assumption: per aligned bucket,
// |r ⋈ s| = r_i · s_i / V_i, with V_i the number of distinct values the
// bucket can hold (its width). The result's histogram has the join's
// per-bucket cardinalities; its tuple width is the concatenation.
func joinStats(a, b TableStats) TableStats {
	if len(a.Hist.Counts) != len(b.Hist.Counts) {
		panic("optimizer: join inputs have incompatible histograms")
	}
	spec := a.Hist.Spec
	counts := make([]float64, len(a.Hist.Counts))
	for i := range counts {
		lo, hi := spec.Bounds(i)
		width := float64(hi - lo)
		if width < 1 {
			width = 1
		}
		counts[i] = a.Hist.Counts[i] * b.Hist.Counts[i] / width
	}
	return TableStats{
		Name:       fmt.Sprintf("(%s⋈%s)", a.Name, b.Name),
		Hist:       &histogram.Histogram{Spec: spec, Counts: counts},
		TupleBytes: a.TupleBytes + b.TupleBytes,
	}
}

// Plan is a join tree annotated with cost estimates.
type Plan struct {
	// Root is the top of the join tree.
	Root *PlanNode
	// Bytes is the plan's estimated total shipped bytes.
	Bytes float64
}

// PlanNode is either a base relation (Table set, children nil) or a join
// of its two children.
type PlanNode struct {
	Table       *TableStats // non-nil for leaves
	Left, Right *PlanNode   // non-nil for joins
	// Stats are the node's output statistics.
	Stats TableStats
	// ShipBytes is the cost of executing this node: bytes rehashed to
	// evaluate it (0 for leaves; inputs' output sizes for joins).
	ShipBytes float64
}

// String renders the join tree in infix form.
func (p Plan) String() string {
	if p.Root == nil {
		return "(empty)"
	}
	return p.Root.Stats.Name
}

// Rows returns the plan's estimated output cardinality.
func (p Plan) Rows() float64 {
	if p.Root == nil {
		return 0
	}
	return p.Root.Stats.Rows()
}

func leaf(t *TableStats) *PlanNode {
	return &PlanNode{Table: t, Stats: *t}
}

func join(l, r *PlanNode) *PlanNode {
	return &PlanNode{
		Left:      l,
		Right:     r,
		Stats:     joinStats(l.Stats, r.Stats),
		ShipBytes: l.Stats.Bytes() + r.Stats.Bytes(),
	}
}

func treeCost(n *PlanNode) float64 {
	if n == nil || n.Table != nil {
		return 0
	}
	return n.ShipBytes + treeCost(n.Left) + treeCost(n.Right)
}

func planOf(root *PlanNode) Plan {
	return Plan{Root: root, Bytes: treeCost(root)}
}

// Optimize returns the cheapest join tree (bushy plans included) for the
// given relations, by dynamic programming over relation subsets — the
// classic Selinger-style enumeration, driven here by DHS-reconstructed
// statistics. It panics beyond 20 relations (the DP is exponential).
func Optimize(tables []TableStats) Plan {
	n := len(tables)
	if n == 0 {
		return Plan{}
	}
	if n > 20 {
		panic("optimizer: too many relations for exact enumeration")
	}
	best := make([]*PlanNode, 1<<n)
	cost := make([]float64, 1<<n)
	for i := range cost {
		cost[i] = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		best[1<<i] = leaf(&tables[i])
		cost[1<<i] = 0
	}
	for mask := 1; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		// Enumerate proper sub-splits; visiting each unordered pair once.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if sub > other {
				continue
			}
			l, r := best[sub], best[other]
			if l == nil || r == nil {
				continue
			}
			node := join(l, r)
			c := cost[sub] + cost[other] + node.ShipBytes
			if c < cost[mask] {
				cost[mask] = c
				best[mask] = node
			}
		}
	}
	return planOf(best[1<<n-1])
}

// LeftDeepPlan builds the left-deep join tree following the given order
// of table indices — the plan a statistics-less executor in the style of
// FREddies effectively runs (joins in arrival/query order).
func LeftDeepPlan(tables []TableStats, order []int) Plan {
	if len(order) == 0 {
		return Plan{}
	}
	node := leaf(&tables[order[0]])
	for _, idx := range order[1:] {
		node = join(node, leaf(&tables[idx]))
	}
	return planOf(node)
}

// WorstPlan returns the most expensive left-deep plan, the pessimal
// baseline bounding what a statistics-less executor can be tricked into.
func WorstPlan(tables []TableStats) Plan {
	worst := Plan{Bytes: -1}
	permute(len(tables), func(order []int) {
		p := LeftDeepPlan(tables, order)
		if p.Bytes > worst.Bytes {
			worst = p
		}
	})
	return worst
}

// BestLeftDeep returns the cheapest left-deep plan (for ablation against
// the bushy optimum).
func BestLeftDeep(tables []TableStats) Plan {
	best := Plan{Bytes: math.Inf(1)}
	permute(len(tables), func(order []int) {
		p := LeftDeepPlan(tables, order)
		if p.Bytes < best.Bytes {
			best = p
		}
	})
	return best
}

// permute calls f with every permutation of 0..n-1 (Heap's algorithm).
func permute(n int, f func([]int)) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(idx)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				idx[i], idx[k-1] = idx[k-1], idx[i]
			} else {
				idx[0], idx[k-1] = idx[k-1], idx[0]
			}
		}
	}
	if n > 0 {
		rec(n)
	}
}
