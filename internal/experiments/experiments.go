// Package experiments reproduces the paper's evaluation (§5): every
// table, figure, and quoted number has a driver here, shared by the
// cmd/dhsbench runner and the repository-level benchmarks. DESIGN.md maps
// experiment identifiers (E1–E11) to the paper artifacts they regenerate;
// EXPERIMENTS.md records paper-versus-measured results.
//
// Experiments take a Params value; the zero value plus Defaults() gives a
// configuration faithful to §5.1 — a 1024-node Chord-like overlay,
// 64-bit MD4 identifiers, k = 24-bit DHS keys, m = 512 bitmaps, lim = 5,
// and the four Zipf(0.7) relations Q, R, S, T — scaled down by
// Params.Scale (insertions cost real time; Scale = 1 reproduces the full
// 150 M-tuple workload).
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/histogram"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/workload"
)

// Params configures an experiment run.
type Params struct {
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed uint64
	// Nodes is the overlay size N (default 1024, §5.1).
	Nodes int
	// Scale divides the paper's relation sizes (default 100; use 10 for
	// the α-faithful regime of §5.1 and 1 for full paper scale).
	Scale int
	// K is the DHS key length (default 24).
	K uint
	// M is the default number of bitmap vectors (default 512) for
	// experiments that do not sweep m.
	M int
	// Lim is the probe budget per interval (default 5).
	Lim int
	// Buckets is the histogram resolution (default 100).
	Buckets int
	// Trials is the number of counting repetitions averaged per
	// configuration (default 20).
	Trials int
	// Workers bounds how many independent experiment cells (sweep
	// configurations, seeds) run concurrently; each cell builds its own
	// environment and overlay from Seed, so results are bit-for-bit
	// identical at every worker count. 0 means one worker per CPU.
	Workers int
	// Tracer, when non-nil, is attached to every simulation environment
	// the experiment builds, so the run's lookups, probes, walk steps,
	// stores, expiries, and injected faults stream to it. The sinks in
	// internal/obs are race-safe, but experiments that fan cells out
	// across Workers feed one sink from many concurrent environments —
	// the event *ordering* across cells is then scheduling-dependent even
	// though each cell's results stay deterministic. For byte-identical
	// trace files, run with Workers = 1.
	Tracer obs.Tracer
}

// Defaults fills zero fields with the paper's evaluation parameters.
func (p Params) Defaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Nodes == 0 {
		p.Nodes = 1024
	}
	if p.Scale == 0 {
		p.Scale = 100
	}
	if p.K == 0 {
		p.K = core.DefaultK
	}
	if p.M == 0 {
		p.M = core.DefaultM
	}
	if p.Lim == 0 {
		p.Lim = core.DefaultLim
	}
	if p.Buckets == 0 {
		p.Buckets = 100
	}
	if p.Trials == 0 {
		p.Trials = 20
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// setup is the shared scaffolding: one environment, one ring, one DHS
// per estimator kind over the same distributed state.
type setup struct {
	params Params
	env    *sim.Env
	ring   *chord.Ring
	// byKind holds one DHS handle per estimator family; they share the
	// overlay state (insertion is estimator-agnostic, §2.2.2).
	byKind map[sketch.Kind]*core.DHS
}

// newEnv builds a cell's simulation environment from the experiment seed
// and attaches the experiment-wide tracer, if any.
func newEnv(p Params) *sim.Env {
	env := sim.NewEnv(p.Seed)
	env.SetTracer(p.Tracer)
	return env
}

// newSetup builds the overlay and DHS handles with the given bitmap
// count and extra config tweaks applied by mutate (may be nil).
func newSetup(p Params, m int, mutate func(*core.Config)) (*setup, error) {
	env := newEnv(p)
	ring := chord.New(env, p.Nodes)
	s := &setup{params: p, env: env, ring: ring, byKind: map[sketch.Kind]*core.DHS{}}
	for _, kind := range []sketch.Kind{sketch.KindPCSA, sketch.KindSuperLogLog, sketch.KindLogLog, sketch.KindHyperLogLog} {
		cfg := core.Config{
			Overlay: ring,
			Env:     env,
			K:       p.K,
			M:       m,
			Lim:     p.Lim,
			Kind:    kind,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		d, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v setup: %w", kind, err)
		}
		s.byKind[kind] = d
	}
	return s, nil
}

// insertStats aggregates insertion-phase costs.
type insertStats struct {
	Items   int
	Lookups int
	Hops    int64
	Bytes   int64
}

func (st *insertStats) add(c core.InsertCost) {
	st.Items++
	st.Lookups += c.Lookups
	st.Hops += c.Hops
	st.Bytes += c.Bytes
}

// AvgHops returns hops per inserted item.
func (st insertStats) AvgHops() float64 {
	if st.Items == 0 {
		return 0
	}
	return float64(st.Hops) / float64(st.Items)
}

// AvgBytes returns bytes per inserted item.
func (st insertStats) AvgBytes() float64 {
	if st.Items == 0 {
		return 0
	}
	return float64(st.Bytes) / float64(st.Items)
}

// cardinalityMetric names the per-relation distinct-count metric.
func cardinalityMetric(rel string) uint64 {
	return core.MetricID("cardinality|" + rel)
}

// insertRelation streams the relation's tuples into the DHS under the
// relation's cardinality metric, each tuple originating at a uniformly
// random node (the §5.1 placement). The insertion path is shared by all
// estimator kinds, so any of the setup's handles may perform it.
func (s *setup) insertRelation(rel workload.Relation) (insertStats, error) {
	d := s.byKind[sketch.KindSuperLogLog]
	metric := cardinalityMetric(rel.Name)
	gen := workload.NewGenerator(rel, s.params.Seed)
	nodes := s.ring.Nodes()
	placer := s.env.Derive("placement|" + rel.Name)
	var st insertStats
	for {
		tup, ok := gen.Next()
		if !ok {
			return st, nil
		}
		src := nodes[placer.IntN(len(nodes))]
		c, err := d.InsertFrom(src, metric, tup.ID)
		if err != nil {
			return st, err
		}
		st.add(c)
	}
}

// countStats aggregates counting-phase results over trials.
type countStats struct {
	Trials  int
	Visited int
	Hops    int64
	Bytes   int64
	ErrSum  float64 // Σ |est-n|/n
}

func (cs *countStats) add(est core.Estimate, actual float64) {
	cs.Trials++
	cs.Visited += est.Cost.NodesVisited
	cs.Hops += est.Cost.Hops
	cs.Bytes += est.Cost.Bytes
	if actual > 0 {
		diff := est.Value - actual
		if diff < 0 {
			diff = -diff
		}
		cs.ErrSum += diff / actual
	}
}

func (cs countStats) avg(v int64) float64 {
	if cs.Trials == 0 {
		return 0
	}
	return float64(v) / float64(cs.Trials)
}

// AvgVisited returns nodes visited per estimation.
func (cs countStats) AvgVisited() float64 { return cs.avg(int64(cs.Visited)) }

// AvgHops returns hops per estimation.
func (cs countStats) AvgHops() float64 { return cs.avg(cs.Hops) }

// AvgBytes returns bytes per estimation.
func (cs countStats) AvgBytes() float64 { return cs.avg(cs.Bytes) }

// AvgErr returns the mean relative error.
func (cs countStats) AvgErr() float64 {
	if cs.Trials == 0 {
		return 0
	}
	return cs.ErrSum / float64(cs.Trials)
}

// countRelations estimates each relation's cardinality `trials` times
// from random querying nodes and aggregates.
func (s *setup) countRelations(kind sketch.Kind, rels []workload.Relation, trials int) (countStats, error) {
	d := s.byKind[kind]
	var cs countStats
	for trial := 0; trial < trials; trial++ {
		for _, rel := range rels {
			est, err := d.Count(cardinalityMetric(rel.Name))
			if err != nil {
				return cs, err
			}
			cs.add(est, float64(rel.Tuples))
		}
	}
	return cs, nil
}

// randomSrc returns a random live node for query origins.
func (s *setup) randomSrc() dht.Node { return s.ring.RandomNode() }

// histSpec is the §5.1 histogram layout for a relation: equi-width over
// the attribute domain.
func histSpec(rel workload.Relation, buckets int) histogram.Spec {
	return histogram.Spec{
		Relation:  rel.Name,
		Attribute: "a",
		Min:       rel.AttrMin,
		Max:       rel.AttrMax,
		Buckets:   buckets,
	}
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// kb and mb format byte counts the way the paper's tables do.
func kb(b float64) float64 { return b / 1024 }
func mb(b float64) float64 { return b / (1024 * 1024) }
