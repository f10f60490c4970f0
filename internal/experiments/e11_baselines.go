package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/baseline"
	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/stats"
)

// E11Row scores one counting scheme on the paper's constraint set.
type E11Row struct {
	Method string
	// Err is |est − distinct| / distinct: the duplicate-sensitive
	// schemes are scored against the distinct count on purpose — that is
	// the quantity the motivating applications need (§1).
	Err float64
	// DupInsensitive is constraint 6.
	DupInsensitive bool
	// QueryMessages/QueryHops/QueryBytes cost one query (constraint 1).
	QueryMessages, QueryHops, QueryBytes int64
	// BuildMessages is the cost of getting the scheme ready to answer.
	BuildMessages int64
	// MaxNodeLoad is the peak per-node message load (constraint 3).
	MaxNodeLoad int64
}

// E11Result is the ablation of §1's related-work comparison: DHS against
// one-node-per-counter, gossip, broadcast/convergecast (with and without
// sketches), and sampling — on the same item placement with duplicates.
type E11Result struct {
	Params   Params
	Distinct int
	Copies   int
	Rows     []E11Row
}

// RunE11 places items with duplicates and runs every scheme.
func RunE11(p Params) (*E11Result, error) {
	p = p.Defaults()
	items := 1000000 / p.Scale
	if items < 1000 {
		items = 1000
	}
	const copies = 2

	env := newEnv(p)
	ring := chord.New(env, p.Nodes)
	scen := baseline.NewScenario(ring)
	ids := make([]uint64, items)
	for i := range ids {
		ids[i] = core.ItemID(fmt.Sprintf("e11-%d", i))
	}
	scen.Place(ids, copies)
	distinct := float64(scen.TrueDistinct())

	res := &E11Result{Params: p, Distinct: scen.TrueDistinct(), Copies: scen.TotalCopies()}
	addRow := func(method string, est float64, dup bool, build int64, q sim.Traffic, maxLoad int64) {
		res.Rows = append(res.Rows, E11Row{
			Method:         method,
			Err:            stats.AbsRelErr(est, distinct),
			DupInsensitive: dup,
			QueryMessages:  q.Messages,
			QueryHops:      q.Hops,
			QueryBytes:     q.Bytes,
			BuildMessages:  build,
			MaxNodeLoad:    maxLoad,
		})
	}

	// DHS: every node inserts its local copies, then one node counts.
	// The bitmap count is sized for the guaranteed regime of §4.1
	// (α = items/(m·N) ≥ 2), capped by the configured default.
	m := guaranteedM(items, p.Nodes, p.M)
	d, err := core.New(core.Config{Overlay: ring, Env: env, K: p.K, M: m, Lim: p.Lim, Kind: sketch.KindSuperLogLog})
	if err != nil {
		return nil, err
	}
	metric := core.MetricID("e11")
	buildBefore := env.Traffic.Snapshot()
	var insertErr error
	scen.ForEach(func(n dht.Node, local []uint64) {
		for _, it := range local {
			if _, err := d.InsertFrom(n, metric, it); err != nil {
				insertErr = err
			}
		}
	})
	if insertErr != nil {
		return nil, insertErr
	}
	buildMsgs := env.Traffic.Snapshot().Sub(buildBefore).Messages
	qBefore := env.Traffic.Snapshot()
	est, err := d.Count(metric)
	if err != nil {
		return nil, err
	}
	probeLoad := dht.SummarizeCounters(ring.Nodes()).Probed
	addRow("DHS (sLL)", est.Value, true, buildMsgs, env.Traffic.Snapshot().Sub(qBefore), int64(probeLoad.Max))

	// One node per counter.
	snc, err := baseline.NewSingleNodeCounter(scen, "e11")
	if err != nil {
		return nil, err
	}
	b, err := snc.Build()
	if err != nil {
		return nil, err
	}
	q, err := snc.Query()
	if err != nil {
		return nil, err
	}
	addRow("single-node counter", q.Estimate, q.DuplicateInsensitive, b.Cost.Messages, q.Cost, b.MaxNodeLoad)

	// Gossip push-sum.
	rounds := 30
	g := baseline.PushSum(scen, rounds)
	addRow(fmt.Sprintf("gossip push-sum (%d rounds)", rounds), g.Estimate, g.DuplicateInsensitive, 0, g.Cost, g.MaxNodeLoad)

	// Convergecast, raw and sketch-merging.
	cRaw, err := baseline.Convergecast(scen, false, 0, 0)
	if err != nil {
		return nil, err
	}
	addRow("convergecast (raw sums)", cRaw.Estimate, cRaw.DuplicateInsensitive, 0, cRaw.Cost, cRaw.MaxNodeLoad)
	cSk, err := baseline.Convergecast(scen, true, p.M, 24)
	if err != nil {
		return nil, err
	}
	addRow("convergecast (sketches)", cSk.Estimate, cSk.DuplicateInsensitive, 0, cSk.Cost, cSk.MaxNodeLoad)

	// Sampling 10% of nodes.
	sm := baseline.Sampling(scen, p.Nodes/10)
	addRow("sampling (10% of nodes)", sm.Estimate, sm.DuplicateInsensitive, 0, sm.Cost, sm.MaxNodeLoad)

	return res, nil
}

// Render writes the scheme comparison.
func (r *E11Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E11 baselines (N=%d, %d distinct items, %d copies)\n", r.Params.Nodes, r.Distinct, r.Copies)
	fmt.Fprintln(tw, "method\terr vs distinct %\tdup-insens\tquery msgs\tquery hops\tquery kB\tbuild msgs\tmax node load")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%v\t%d\t%d\t%.1f\t%d\t%d\n",
			row.Method, 100*row.Err, row.DupInsensitive,
			row.QueryMessages, row.QueryHops, kb(float64(row.QueryBytes)),
			row.BuildMessages, row.MaxNodeLoad)
	}
	tw.Flush()
}
