package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sketch"
)

// E13Result measures the paper's constraint 3 — uniform access and
// storage load (Table 3) — directly instead of assuming it: every store,
// probe, lookup, and walk step of a full insert-then-count run streams
// through an obs.Aggregator, and the resulting per-node distributions are
// summarized with percentiles and Gini coefficients. The claim under
// test: because tuples land on uniformly random interval nodes and the
// counting walk enters each interval at a fresh uniform target, no node
// is a hotspot — the load Gini stays well below the ~1.0 of a
// single-counter scheme (where one node takes everything).
type E13Result struct {
	Params Params
	Items  int
	M      int
	// Load is the trace-derived report: per-node probe and store
	// distributions, per-bit heatmap, hop histogram.
	Load obs.LoadReport
	// Counters is the same story told by the nodes' own meters — an
	// independent cross-check of the trace (probes answered must agree).
	Counters dht.CountersSummary
	// Estimate and Err record what the counted passes concluded, tying
	// the load profile to a working estimate.
	Estimate float64
	Err      float64
}

// RunE13 loads one relation-sized metric into a fresh overlay and counts
// it Trials times, with an aggregating tracer attached for the whole run.
// If p.Tracer is set, it observes the same event stream (e.g. a JSONL
// file sink in dhsbench), multiplexed with the aggregator. The run is a
// single deterministic cell — no worker fan-out — so an attached file
// sink sees a reproducible event order.
func RunE13(p Params) (*E13Result, error) {
	p = p.Defaults()
	items := 1000000 / p.Scale
	if items < 1000 {
		items = 1000
	}
	// Size m for the guaranteed regime (alpha >= 2 per interval), as in
	// the other load-bearing experiments.
	m := guaranteedM(items, p.Nodes, p.M)

	agg := obs.NewAggregator()
	env := newEnv(p)
	env.SetTracer(obs.Multi(p.Tracer, agg))
	ring := chord.New(env, p.Nodes)
	d, err := core.New(core.Config{
		Overlay: ring, Env: env, K: p.K, M: m, Lim: p.Lim,
		Kind: sketch.KindSuperLogLog,
	})
	if err != nil {
		return nil, err
	}

	metric := core.MetricID("e13")
	nodes := ring.Nodes()
	placer := env.Derive("placement|e13")
	for i := 0; i < items; i++ {
		src := nodes[placer.IntN(len(nodes))]
		if _, err := d.InsertFrom(src, metric, core.ItemID(fmt.Sprintf("e13-%d", i))); err != nil {
			return nil, err
		}
	}

	var estSum float64
	for trial := 0; trial < p.Trials; trial++ {
		est, err := d.Count(metric)
		if err != nil {
			return nil, err
		}
		estSum += est.Value
	}
	estimate := estSum / float64(p.Trials)
	relErr := estimate/float64(items) - 1
	if relErr < 0 {
		relErr = -relErr
	}

	return &E13Result{
		Params:   p,
		Items:    items,
		M:        m,
		Load:     agg.Report(p.Nodes),
		Counters: dht.SummarizeCounters(nodes),
		Estimate: estimate,
		Err:      relErr,
	}, nil
}

// Render writes the load-balance report: the aggregator's view first,
// then the node counters' cross-check.
func (r *E13Result) Render(w io.Writer) {
	fmt.Fprintf(w, "E13 load balance (N=%d, %d items, m=%d, %d counting passes)\n",
		r.Params.Nodes, r.Items, r.M, r.Params.Trials)
	fmt.Fprintf(w, "estimate %.0f (err %.1f%%)\n", r.Estimate, 100*r.Err)
	r.Load.Render(w)
	tw := newTable(w)
	fmt.Fprintln(tw, "counters\tmean\tmax\tgini")
	fmt.Fprintf(tw, "routed/node\t%.2f\t%.0f\t%.3f\n",
		r.Counters.Routed.Mean, r.Counters.Routed.Max, r.Counters.Routed.Gini)
	fmt.Fprintf(tw, "probed/node\t%.2f\t%.0f\t%.3f\n",
		r.Counters.Probed.Mean, r.Counters.Probed.Max, r.Counters.Probed.Gini)
	fmt.Fprintf(tw, "stores/node\t%.2f\t%.0f\t%.3f\n",
		r.Counters.StoreOps.Mean, r.Counters.StoreOps.Max, r.Counters.StoreOps.Gini)
	tw.Flush()
}
