package dht

import (
	"math"
	"testing"
)

// counterNode is a minimal Node carrying only counters.
type counterNode struct {
	id uint64
	c  Counters
}

func (n *counterNode) ID() uint64          { return n.id }
func (n *counterNode) Alive() bool         { return true }
func (n *counterNode) App() any            { return nil }
func (n *counterNode) SetApp(any)          {}
func (n *counterNode) Counters() *Counters { return &n.c }

func nodesWith(loads ...[3]int64) []Node {
	out := make([]Node, len(loads))
	for i, l := range loads {
		n := &counterNode{id: uint64(i + 1)}
		for j, add := range []func(){n.c.AddRouted, n.c.AddProbed, n.c.AddStoreOps} {
			for range l[j] {
				add()
			}
		}
		out[i] = n
	}
	return out
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestSummarizeCounters(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
		// expectations on the Probed distribution; Routed and StoreOps go
		// through the same code path.
		count                int
		mean, min, max, gini float64
	}{
		{
			name:  "empty",
			nodes: nil,
			count: 0,
		},
		{
			name:  "single node",
			nodes: nodesWith([3]int64{1, 4, 9}),
			count: 1, mean: 4, min: 4, max: 4, gini: 0,
		},
		{
			name: "perfectly uniform",
			nodes: nodesWith(
				[3]int64{5, 3, 1}, [3]int64{5, 3, 1}, [3]int64{5, 3, 1}, [3]int64{5, 3, 1}),
			count: 4, mean: 3, min: 3, max: 3, gini: 0,
		},
		{
			name: "one hotspot",
			nodes: nodesWith(
				[3]int64{0, 12, 0}, [3]int64{0, 0, 0}, [3]int64{0, 0, 0}, [3]int64{0, 0, 0}),
			count: 4, mean: 3, min: 0, max: 12, gini: 0.75,
		},
		{
			name: "zeros included",
			nodes: nodesWith(
				[3]int64{0, 2, 0}, [3]int64{0, 0, 0}, [3]int64{0, 4, 0}, [3]int64{0, 0, 0}),
			count: 4, mean: 1.5, min: 0, max: 4,
			// Gini of {0, 0, 2, 4}: Σ|xᵢ−xⱼ| = 28 over 2·n²·mean = 48.
			gini: 28.0 / 48.0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := SummarizeCounters(c.nodes)
			if s.Nodes != c.count {
				t.Fatalf("Nodes = %d, want %d", s.Nodes, c.count)
			}
			d := s.Probed
			if d.Count != c.count {
				t.Fatalf("Probed.Count = %d, want %d", d.Count, c.count)
			}
			if c.count == 0 {
				return
			}
			if !approx(d.Mean, c.mean) || !approx(d.Min, c.min) || !approx(d.Max, c.max) {
				t.Errorf("Probed = %+v, want mean %v min %v max %v", d, c.mean, c.min, c.max)
			}
			if !approx(d.Gini, c.gini) {
				t.Errorf("Probed.Gini = %v, want %v", d.Gini, c.gini)
			}
		})
	}
}

// TestSummarizeCountersAllFields checks that each counter lands in its
// own distribution.
func TestSummarizeCountersAllFields(t *testing.T) {
	s := SummarizeCounters(nodesWith([3]int64{10, 20, 30}, [3]int64{20, 40, 60}))
	if !approx(s.Routed.Mean, 15) || !approx(s.Probed.Mean, 30) || !approx(s.StoreOps.Mean, 45) {
		t.Fatalf("field mix-up: routed %v probed %v stores %v",
			s.Routed.Mean, s.Probed.Mean, s.StoreOps.Mean)
	}
	if !approx(s.Probed.P50, 40) && !approx(s.Probed.P50, 30) {
		t.Fatalf("Probed.P50 = %v, want a sane median of {20, 40}", s.Probed.P50)
	}
}
