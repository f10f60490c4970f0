package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/runner"
	"dhsketch/internal/sketch"
	"dhsketch/internal/workload"
)

// E3Row is one overlay size of the scalability sweep.
type E3Row struct {
	Nodes     int
	SLL, PCSA countStats
	// AvgInsertHops is the insertion-side cost at this size.
	AvgInsertHops float64
}

// E3Result reproduces §5.2 "Scalability" (figure omitted in the paper):
// counting hop-count versus overlay size, expected to grow
// logarithmically — the paper quotes 109/97 hops at 1024 nodes rising
// only to ~112/103 at 10240.
type E3Result struct {
	Params Params
	Rows   []E3Row
}

// DefaultE3Nodes sweeps the overlay size over one order of magnitude,
// matching the paper's 1024 → 10240 range.
var DefaultE3Nodes = []int{1024, 2048, 4096, 10240}

// RunE3 repeats the E2 measurement at m = Params.M over a sweep of
// overlay sizes. Each size is an independent trial — its own environment
// and ring built from Params.Seed — so the sweep fans out across
// Params.Workers without changing any row.
func RunE3(p Params, sizes []int) (*E3Result, error) {
	p = p.Defaults()
	if len(sizes) == 0 {
		sizes = DefaultE3Nodes
	}
	rels := workload.PaperRelations(p.Scale)
	rows, err := runner.Map(len(sizes), p.Workers, func(i int) (E3Row, error) {
		pn := p
		pn.Nodes = sizes[i]
		s, err := newSetup(pn, p.M, nil)
		if err != nil {
			return E3Row{}, err
		}
		var ins insertStats
		for _, rel := range rels {
			st, err := s.insertRelation(rel)
			if err != nil {
				return E3Row{}, err
			}
			ins.Items += st.Items
			ins.Hops += st.Hops
		}
		row := E3Row{Nodes: sizes[i], AvgInsertHops: ins.AvgHops()}
		if row.SLL, err = s.countRelations(sketch.KindSuperLogLog, rels, p.Trials); err != nil {
			return E3Row{}, err
		}
		if row.PCSA, err = s.countRelations(sketch.KindPCSA, rels, p.Trials); err != nil {
			return E3Row{}, err
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &E3Result{Params: p, Rows: rows}, nil
}

// Render writes the scalability table.
func (r *E3Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E3 scalability (m=%d, scale=1/%d)\n", r.Params.M, r.Params.Scale)
	fmt.Fprintln(tw, "N\tcount hops (sLL/PCSA)\tnodes visited (sLL/PCSA)\tinsert hops\terror % (sLL/PCSA)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.0f / %.0f\t%.0f / %.0f\t%.2f\t%.1f / %.1f\n",
			row.Nodes,
			row.SLL.AvgHops(), row.PCSA.AvgHops(),
			row.SLL.AvgVisited(), row.PCSA.AvgVisited(),
			row.AvgInsertHops,
			100*row.SLL.AvgErr(), 100*row.PCSA.AvgErr())
	}
	tw.Flush()
}
