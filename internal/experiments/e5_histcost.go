package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/histogram"
	"dhsketch/internal/sketch"
	"dhsketch/internal/stats"
	"dhsketch/internal/workload"
)

// E5Row is one line of the paper's Table 3.
type E5Row struct {
	M int
	// Reconstruction cost per histogram, averaged over relations ×
	// trials, for super-LogLog and PCSA.
	SLL, PCSA countStats
}

// E5Result reproduces Table 3, "Histogram building costs (sLL/PCSA)":
// the cost for one node to reconstruct a complete 100-bucket histogram
// from the DHS.
type E5Result struct {
	Params Params
	Rows   []E5Row
}

// RunE5 records all four relations into per-bucket metrics, then has
// random nodes reconstruct each histogram.
func RunE5(p Params, ms []int) (*E5Result, error) {
	p = p.Defaults()
	if len(ms) == 0 {
		ms = DefaultE2Ms // Table 3 uses Table 2's bitmap counts
	}
	rels := workload.PaperRelations(p.Scale)
	res := &E5Result{Params: p}
	for _, m := range ms {
		s, err := newSetup(p, m, nil)
		if err != nil {
			return nil, err
		}
		if err := insertHistograms(s, rels, p); err != nil {
			return nil, err
		}
		exactByRel := make(map[string][]int, len(rels))
		for _, rel := range rels {
			exactByRel[rel.Name] = workload.ExactHistogram(rel, p.Seed, p.Buckets)
		}
		row := E5Row{M: m}
		for trial := 0; trial < p.Trials; trial++ {
			for _, rel := range rels {
				spec := histSpec(rel, p.Buckets)
				exact := exactByRel[rel.Name]
				for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
					h, err := histogram.Reconstruct(s.byKind[kind], spec, s.randomSrc())
					if err != nil {
						return nil, err
					}
					cs := &row.SLL
					if kind == sketch.KindPCSA {
						cs = &row.PCSA
					}
					cs.Trials++
					cs.Visited += h.Cost.NodesVisited
					cs.Hops += h.Cost.Hops
					cs.Bytes += h.Cost.Bytes
					cs.ErrSum += meanCellError(h.Counts, exact)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// insertHistograms records every relation's tuples under their histogram
// bucket metrics.
func insertHistograms(s *setup, rels []workload.Relation, p Params) error {
	d := s.byKind[sketch.KindSuperLogLog]
	nodes := s.ring.Nodes()
	for _, rel := range rels {
		spec := histSpec(rel, p.Buckets)
		b, err := histogram.NewBuilder(d, spec)
		if err != nil {
			return err
		}
		gen := workload.NewGenerator(rel, p.Seed)
		placer := s.env.Derive("placement|" + rel.Name)
		for {
			tup, ok := gen.Next()
			if !ok {
				break
			}
			src := nodes[placer.IntN(len(nodes))]
			if _, err := b.Record(src, tup.ID, tup.Attr); err != nil {
				return err
			}
		}
	}
	return nil
}

// meanCellError averages |est-exact|/exact over populated cells. Cells
// whose exact count is zero or tiny sit below the sketch floor and are
// excluded, as in any per-cell error metric over skewed data.
func meanCellError(est []float64, exact []int) float64 {
	var sum float64
	n := 0
	for i, want := range exact {
		if want < 10 {
			continue
		}
		sum += stats.AbsRelErr(est[i], float64(want))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render writes the result in the layout of the paper's Table 3.
func (r *E5Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E5 / Table 3: histogram building costs, sLL/PCSA (N=%d, %d buckets, scale=1/%d)\n",
		r.Params.Nodes, r.Params.Buckets, r.Params.Scale)
	fmt.Fprintln(tw, "m\tnodes visited\thops\tBW (MBytes)\tper-cell err (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.0f / %.0f\t%.0f / %.0f\t%.2f / %.2f\t%.1f / %.1f\n",
			row.M,
			row.SLL.AvgVisited(), row.PCSA.AvgVisited(),
			row.SLL.AvgHops(), row.PCSA.AvgHops(),
			mb(row.SLL.AvgBytes()), mb(row.PCSA.AvgBytes()),
			100*row.SLL.AvgErr(), 100*row.PCSA.AvgErr())
	}
	tw.Flush()
}
