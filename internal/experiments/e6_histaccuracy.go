package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/histogram"
	"dhsketch/internal/sketch"
	"dhsketch/internal/stats"
	"dhsketch/internal/workload"
)

// E6Row is one bitmap count of the histogram accuracy sweep.
type E6Row struct {
	M int
	// MeanCellErr is the average per-cell relative error over populated
	// cells, relations, and trials — the paper's "average estimation
	// error of ~8.6% per histogram cell" metric.
	MeanCellErr float64
	// TotalErr is the error of the whole-relation cardinality implied by
	// summing the histogram.
	TotalErr float64
}

// E6Result reproduces the histogram-accuracy numbers of §5.2: per-cell
// error shrinking as bitmaps grow (the paper: ~8.6% at 64 vectors, ~7.7%
// at 128, ~6.8% at 256).
type E6Result struct {
	Params Params
	Rows   []E6Row
}

// DefaultE6Ms are the bitmap counts the paper quotes per-cell errors for.
var DefaultE6Ms = []int{64, 128, 256}

// RunE6 measures per-cell histogram error for a sweep of bitmap counts
// using the super-LogLog estimator.
func RunE6(p Params, ms []int) (*E6Result, error) {
	p = p.Defaults()
	if len(ms) == 0 {
		ms = DefaultE6Ms
	}
	rels := workload.PaperRelations(p.Scale)
	res := &E6Result{Params: p}
	for _, m := range ms {
		s, err := newSetup(p, m, nil)
		if err != nil {
			return nil, err
		}
		if err := insertHistograms(s, rels, p); err != nil {
			return nil, err
		}
		d := s.byKind[sketch.KindSuperLogLog]
		exactByRel := make(map[string][]int, len(rels))
		for _, rel := range rels {
			exactByRel[rel.Name] = workload.ExactHistogram(rel, p.Seed, p.Buckets)
		}
		var cellErr, totalErr float64
		samples := 0
		for trial := 0; trial < p.Trials; trial++ {
			for _, rel := range rels {
				spec := histSpec(rel, p.Buckets)
				exact := exactByRel[rel.Name]
				h, err := histogram.Reconstruct(d, spec, s.randomSrc())
				if err != nil {
					return nil, err
				}
				cellErr += meanCellError(h.Counts, exact)
				totalErr += stats.AbsRelErr(h.Total(), float64(rel.Tuples))
				samples++
			}
		}
		res.Rows = append(res.Rows, E6Row{
			M:           m,
			MeanCellErr: cellErr / float64(samples),
			TotalErr:    totalErr / float64(samples),
		})
	}
	return res, nil
}

// Render writes the histogram accuracy table.
func (r *E6Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E6 histogram accuracy (N=%d, %d buckets, sLL, scale=1/%d)\n",
		r.Params.Nodes, r.Params.Buckets, r.Params.Scale)
	fmt.Fprintln(tw, "m\tper-cell err (%)\ttotal err (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\n", row.M, 100*row.MeanCellErr, 100*row.TotalErr)
	}
	tw.Flush()
}
