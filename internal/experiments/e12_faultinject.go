package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/faultdht"
	"dhsketch/internal/runner"
	"dhsketch/internal/sketch"
)

// E12FScenario is one fault regime of the injection sweep.
type E12FScenario struct {
	Name  string
	Fault faultdht.Config
}

// DefaultE12FScenarios sweeps message loss and transient down-windows,
// separately and combined, against the clean baseline.
var DefaultE12FScenarios = []E12FScenario{
	{Name: "clean", Fault: faultdht.Config{}},
	{Name: "loss 10%", Fault: faultdht.Config{DropProb: 0.10}},
	{Name: "loss 10% + down 10%", Fault: faultdht.Config{DropProb: 0.10, TransientFrac: 0.10}},
	{Name: "loss 20% + down 20%", Fault: faultdht.Config{DropProb: 0.20, TransientFrac: 0.20}},
}

// E12FRow is one (scenario, estimator kind, replication) cell.
type E12FRow struct {
	Scenario string
	Kind     sketch.Kind
	R        int
	// Err is the mean relative counting error across trials.
	Err float64
	// DegradedFrac is the fraction of counting passes whose Quality was
	// marked degraded (at least one failed probe or skipped interval).
	DegradedFrac float64
	// FailedProbes is the mean number of failed probe steps per pass.
	FailedProbes float64
	// InsertRetries is the total number of insertion retries the failure
	// model forced during the load phase.
	InsertRetries int
	// InsertFailed counts items whose insertion exhausted its retries
	// (the item is simply absent from the sketch).
	InsertFailed int
	// Lost is the fault layer's total dropped-message count for the cell.
	Lost int64
}

// E12FResult measures graceful degradation: counting error and quality
// annotations as the fault injector drops messages and cycles nodes
// through transient down-windows, across estimator families and
// replication degrees. The headline claim it checks: with 10% loss and
// 10% of nodes flapping, replicated counting stays within 2x of the
// clean baseline's error instead of failing outright.
type E12FResult struct {
	Params Params
	Items  int
	Rows   []E12FRow
}

// RunE12F runs the fault-injection sweep.
func RunE12F(p Params, scenarios []E12FScenario) (*E12FResult, error) {
	p = p.Defaults()
	if len(scenarios) == 0 {
		scenarios = DefaultE12FScenarios
	}
	items := 5000000 / p.Scale
	if items < 5000 {
		items = 5000
	}
	// Size m for the guaranteed regime (alpha >= 2 per interval).
	m := 2
	for m*2 <= p.M && m*2 <= 64 && float64(items)/float64(2*m*p.Nodes) >= 2 {
		m *= 2
	}

	// Every (scenario, kind, R) cell builds its own environment, ring,
	// and fault layer from Params.Seed, so the grid fans out across
	// Params.Workers without changing any row.
	kinds := []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA}
	replications := []int{0, 3}
	cells := len(scenarios) * len(kinds) * len(replications)
	rows, err := runner.Map(cells, p.Workers, func(i int) (E12FRow, error) {
		sc := scenarios[i/(len(kinds)*len(replications))]
		kind := kinds[i/len(replications)%len(kinds)]
		R := replications[i%len(replications)]
		row, err := runE12FCell(p, sc, kind, R, items, m)
		if err != nil {
			return E12FRow{}, err
		}
		return *row, nil
	})
	if err != nil {
		return nil, err
	}
	return &E12FResult{Params: p, Items: items, Rows: rows}, nil
}

// runE12FCell loads and repeatedly counts one configuration on a fresh
// deterministic overlay behind the fault injector.
func runE12FCell(p Params, sc E12FScenario, kind sketch.Kind, R, items, m int) (*E12FRow, error) {
	env := newEnv(p)
	ring := chord.New(env, p.Nodes)
	fo := faultdht.New(ring, env, sc.Fault)
	d, err := core.New(core.Config{
		Overlay: fo, Env: env, K: p.K, M: m, Lim: p.Lim,
		Kind: kind, Replication: R,
	})
	if err != nil {
		return nil, err
	}

	metric := core.MetricID("e12f")
	nodes := ring.Nodes()
	placer := env.Derive("placement|e12f")
	row := &E12FRow{Scenario: sc.Name, Kind: kind, R: R}
	for i := 0; i < items; i++ {
		src := nodes[placer.IntN(len(nodes))]
		c, err := d.InsertFrom(src, metric, core.ItemID(fmt.Sprintf("e12f-%d", i)))
		row.InsertRetries += c.Retries
		if err != nil {
			// Retries exhausted: the item is lost to the failure model,
			// which is itself a measured outcome, not a run failure.
			row.InsertFailed++
		}
		if i%64 == 63 {
			// Let virtual time pass so down-windows rotate through the
			// flaky population during the load phase.
			env.Clock.Advance(1)
		}
	}

	var errSum, failedSum float64
	degraded := 0
	for trial := 0; trial < p.Trials; trial++ {
		est, err := d.Count(metric)
		if err != nil {
			// Graceful degradation means counting never errors under
			// injected faults; surfacing one fails the experiment.
			return nil, fmt.Errorf("experiments: e12f %s/%v/R=%d trial %d: %w",
				sc.Name, kind, R, trial, err)
		}
		e := est.Value/float64(items) - 1
		if e < 0 {
			e = -e
		}
		errSum += e
		failedSum += float64(est.Quality.ProbesFailed)
		if est.Quality.Degraded {
			degraded++
		}
		// Desynchronize counting passes from the down-window period.
		env.Clock.Advance(7)
	}
	row.Err = errSum / float64(p.Trials)
	row.DegradedFrac = float64(degraded) / float64(p.Trials)
	row.FailedProbes = failedSum / float64(p.Trials)
	row.Lost = fo.Stats().Lost
	return row, nil
}

// Render writes the fault-injection table.
func (r *E12FResult) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E12F fault injection (N=%d, %d items, %d trials/cell)\n",
		r.Params.Nodes, r.Items, r.Params.Trials)
	fmt.Fprintln(tw, "scenario\tkind\tR\terr %\tdegraded %\tfailed probes\tinsert retries\tinserts lost\tmsgs dropped")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%.1f\t%.0f\t%.1f\t%d\t%d\t%d\n",
			row.Scenario, row.Kind, row.R, 100*row.Err, 100*row.DegradedFrac,
			row.FailedProbes, row.InsertRetries, row.InsertFailed, row.Lost)
	}
	tw.Flush()
}
