package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/core"
	"dhsketch/internal/sketch"
	"dhsketch/internal/workload"
)

// E10Row is one (replication/variant, failure fraction) cell.
type E10Row struct {
	Variant     string  // "R=0", "R=3", "shift b=8", ...
	FailedFrac  float64 // fraction of nodes crashed before counting
	Err         float64 // mean relative error of the estimate
	InsertHops  float64 // per-item insertion cost of the variant
	InsertBytes float64
}

// E10Result probes the §3.5 fault-tolerance story: estimation error under
// node failures, for successor replication degrees R and for the
// bit-shift variant that maps bits to larger intervals at no replication
// cost.
type E10Result struct {
	Params Params
	Rows   []E10Row
}

// DefaultE10Fractions are the failure rates swept.
var DefaultE10Fractions = []float64{0, 0.1, 0.2, 0.3}

// RunE10 measures counting error after crashing a fraction of the
// overlay, across fault-tolerance variants. Every (variant, fraction)
// cell uses a fresh deterministic overlay so failures do not accumulate.
func RunE10(p Params, fractions []float64) (*E10Result, error) {
	p = p.Defaults()
	if len(fractions) == 0 {
		fractions = DefaultE10Fractions
	}
	// Use the smallest relation: the hardest case for recovery.
	rel := workload.PaperRelations(p.Scale)[0]

	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"R=0", nil},
		{"R=1", func(c *core.Config) { c.Replication = 1 }},
		{"R=3", func(c *core.Config) { c.Replication = 3 }},
		// The bit-shift variant spreads each bit over 2^b more nodes —
		// free insertion-side redundancy — but the same factor dilutes
		// per-node findability, so it must ship with a larger counting
		// budget (lim scaled by 2^b; see core.Geometry.Interval).
		{"shift b=2, lim=20", func(c *core.Config) { c.ShiftBits = 2; c.Lim = 20 }},
	}

	res := &E10Result{Params: p}
	for _, v := range variants {
		for _, frac := range fractions {
			s, err := newSetup(p, p.M, v.mutate)
			if err != nil {
				return nil, err
			}
			ins, err := s.insertRelation(rel)
			if err != nil {
				return nil, err
			}
			if frac > 0 {
				s.ring.FailRandom(int(frac * float64(p.Nodes)))
			}
			cs, err := s.countRelations(sketch.KindSuperLogLog, []workload.Relation{rel}, p.Trials)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, E10Row{
				Variant:     v.name,
				FailedFrac:  frac,
				Err:         cs.AvgErr(),
				InsertHops:  ins.AvgHops(),
				InsertBytes: ins.AvgBytes(),
			})
		}
	}
	return res, nil
}

// Render writes the fault-tolerance table.
func (r *E10Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E10 fault tolerance (N=%d, m=%d, relation Q, sLL)\n", r.Params.Nodes, r.Params.M)
	fmt.Fprintln(tw, "variant\tfailed %\terror %\tinsert hops\tinsert bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.2f\t%.1f\n",
			row.Variant, 100*row.FailedFrac, 100*row.Err, row.InsertHops, row.InsertBytes)
	}
	tw.Flush()
}
