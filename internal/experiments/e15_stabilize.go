package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/runner"
	"dhsketch/internal/sketch"
)

// DefaultE15ChurnLevels are the churn intensities swept, in percent of
// the overlay crashed (and replaced by joiners) per churn round.
var DefaultE15ChurnLevels = []float64{0, 1, 2, 5, 10}

// E15Row is one churn level of the stabilization sweep.
type E15Row struct {
	// ChurnPct is the percentage of nodes crashed and replaced per round.
	ChurnPct float64
	// ErrBase is the mean counting error on the converged ring before
	// any churn.
	ErrBase float64
	// ErrChurn is the mean counting error of the passes issued in the
	// middle of churn, against stale routing state and partially
	// repaired replicas.
	ErrChurn float64
	// ErrRecovered is the mean error after churn stops, the protocol
	// reconverges, and one soft-state refresh cycle completes — the
	// graceful-degradation claim is that it returns to ErrBase.
	ErrRecovered float64
	// StalePerPass is the mean number of stale-routing hops a mid-churn
	// counting pass paid (Quality.StaleRetries).
	StalePerPass float64
	// FailedPerPass is the mean number of failed probe steps per
	// mid-churn pass.
	FailedPerPass float64
	// RepairWindowFrac is the fraction of mid-churn passes flagged with
	// Quality.RepairWindow.
	RepairWindowFrac float64
	// SettleTicks is how long after the last churn round the protocol
	// took to reconverge.
	SettleTicks int64
	// RepairTuples is the number of tuples replica repair copied to new
	// successors over the whole run.
	RepairTuples int64
	// ProtoMsgs and ProtoKB are the stabilization protocol's own traffic
	// (metered separately from the data plane).
	ProtoMsgs int64
	ProtoKB   float64
	// Crashes and Joins count the membership events driven.
	Crashes int64
	Joins   int64
}

// E15Result measures counting under protocol-level churn: nodes crash
// for good and fresh nodes join while counting passes run against
// whatever routing state the stabilization protocol has managed to
// repair. The claims under test, per churn level: counting never aborts
// mid-churn (failures degrade Quality instead), the degradation is
// visible and proportional (StaleRetries, RepairWindow, error vs the
// converged baseline), and after churn stops the protocol reconverges
// and one TTL refresh returns the error to baseline — the paper's
// soft-state argument (§3.3) extended to the overlay's own routing
// state.
type E15Result struct {
	Params Params
	Items  int
	M      int
	// SuccListLen is the successor-list length r the protocol ran with.
	SuccListLen int
	Rows        []E15Row
}

// Shape of one cell's timeline.
const (
	e15BaseTrials  = 4  // counts on the converged ring before churn
	e15ChurnRounds = 6  // crash/join bursts, one count each
	e15RoundTicks  = 16 // virtual ticks between bursts
	e15RecTrials   = 4  // counts after reconvergence + refresh
	e15TTL         = 512
)

// RunE15 runs the churn sweep. Each churn level is one independent
// deterministic cell fanned across p.Workers.
func RunE15(p Params, levels []float64) (*E15Result, error) {
	p = p.Defaults()
	if len(levels) == 0 {
		levels = DefaultE15ChurnLevels
	}
	items := 2000000 / p.Scale
	if items < 2000 {
		items = 2000
	}
	// Size m for the guaranteed regime (alpha >= 2 per interval), as in
	// the other load-bearing experiments.
	m := guaranteedM(items, p.Nodes, p.M)

	rows, err := runner.Map(len(levels), p.Workers, func(i int) (E15Row, error) {
		row, err := runE15Cell(p, levels[i], items, m)
		if err != nil {
			return E15Row{}, err
		}
		return *row, nil
	})
	if err != nil {
		return nil, err
	}
	return &E15Result{
		Params: p, Items: items, M: m,
		SuccListLen: chord.DefaultSuccListLen, Rows: rows,
	}, nil
}

// runE15Cell drives one churn level on a fresh stabilizing ring.
func runE15Cell(p Params, churnPct float64, items, m int) (*E15Row, error) {
	env := newEnv(p)
	ring := chord.NewStabilizing(env, p.Nodes, chord.ProtocolConfig{})
	cfg := ring.Config() // defaulted
	d, err := core.New(core.Config{
		Overlay: ring, Env: env, K: p.K, M: m, Lim: p.Lim,
		Kind: sketch.KindSuperLogLog, Replication: 3, TTL: e15TTL,
	})
	if err != nil {
		return nil, err
	}
	ring.SetRepair(d.RepairFunc())

	metric := core.MetricID("e15")
	ids := make([]uint64, items)
	for i := range ids {
		ids[i] = core.ItemID(fmt.Sprintf("e15-%d", i))
	}
	refresh := func() error {
		for _, id := range ids {
			if _, err := d.Insert(metric, id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := refresh(); err != nil {
		return nil, err
	}

	relErr := func(est core.Estimate) float64 {
		e := est.Value/float64(items) - 1
		if e < 0 {
			e = -e
		}
		return e
	}

	row := &E15Row{ChurnPct: churnPct}

	// Phase 1: baseline on the converged ring.
	for trial := 0; trial < e15BaseTrials; trial++ {
		est, err := d.Count(metric)
		if err != nil {
			return nil, fmt.Errorf("experiments: e15 churn=%.0f%% baseline trial %d: %w", churnPct, trial, err)
		}
		row.ErrBase += relErr(est) / e15BaseTrials
	}

	// Phase 2: churn rounds. Each round crashes k nodes for good, joins
	// k replacements, and counts immediately — one tick later, before
	// any protocol round is due — so the pass runs against genuinely
	// stale routing state: dead successors and fingers still in the
	// tables, crashed replicas not yet repaired. Only then does the
	// rest of the round's virtual time pass and the protocol catch up.
	// Counting must never error — graceful degradation is the claim
	// under test.
	churnRNG := env.Derive("e15-churn")
	k := int(churnPct*float64(p.Nodes)/100 + 0.5)
	for round := 0; round < e15ChurnRounds; round++ {
		for j := 0; j < k; j++ {
			nodes := ring.Nodes()
			ring.Crash(nodes[churnRNG.IntN(len(nodes))])
			ring.Join(fmt.Sprintf("e15-join-%d-%d", round, j))
		}
		env.Clock.Advance(1)
		est, err := d.Count(metric)
		if err != nil {
			return nil, fmt.Errorf("experiments: e15 churn=%.0f%% round %d: counting aborted: %w", churnPct, round, err)
		}
		row.ErrChurn += relErr(est)
		row.StalePerPass += float64(est.Quality.StaleRetries)
		row.FailedPerPass += float64(est.Quality.ProbesFailed)
		if est.Quality.RepairWindow {
			row.RepairWindowFrac++
		}
		env.Clock.Advance(e15RoundTicks - 1)
		ring.Step()
	}
	row.ErrChurn /= e15ChurnRounds
	row.StalePerPass /= e15ChurnRounds
	row.FailedPerPass /= e15ChurnRounds
	row.RepairWindowFrac /= e15ChurnRounds

	// Phase 3: churn stops; let the protocol reconverge, then run one
	// soft-state refresh cycle and measure the recovered error.
	churnEnd := env.Clock.Now()
	for i := 0; i < 512 && !ring.Converged(); i++ {
		env.Clock.Advance(cfg.SettleWindow(0) / 8)
		ring.Step()
	}
	if !ring.Converged() {
		return nil, fmt.Errorf("experiments: e15 churn=%.0f%%: protocol did not reconverge", churnPct)
	}
	row.SettleTicks = env.Clock.Now() - churnEnd
	if err := refresh(); err != nil {
		return nil, err
	}
	for trial := 0; trial < e15RecTrials; trial++ {
		est, err := d.Count(metric)
		if err != nil {
			return nil, fmt.Errorf("experiments: e15 churn=%.0f%% recovery trial %d: %w", churnPct, trial, err)
		}
		row.ErrRecovered += relErr(est) / e15RecTrials
	}

	st := ring.Stats()
	rs := d.RepairStats()
	row.RepairTuples = rs.Tuples
	row.ProtoMsgs = st.Messages
	row.ProtoKB = float64(st.Bytes) / 1024
	row.Crashes = st.Crashes
	row.Joins = st.Joins
	return row, nil
}

// Render writes the churn table.
func (r *E15Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E15 counting under stabilization churn (N=%d, %d items, m=%d, r=%d, %d rounds x %d ticks, TTL=%d)\n",
		r.Params.Nodes, r.Items, r.M, r.SuccListLen, e15ChurnRounds, e15RoundTicks, e15TTL)
	fmt.Fprintln(tw, "churn %/round\terr base %\terr churn %\terr rec %\tstale/pass\tfailed/pass\trepair win %\tsettle ticks\trepair tuples\tproto msgs\tproto kB\tcrashes")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f\t%d\t%d\t%d\t%.0f\t%d\n",
			row.ChurnPct, 100*row.ErrBase, 100*row.ErrChurn, 100*row.ErrRecovered,
			row.StalePerPass, row.FailedPerPass, 100*row.RepairWindowFrac,
			row.SettleTicks, row.RepairTuples, row.ProtoMsgs, row.ProtoKB, row.Crashes)
	}
	tw.Flush()
}
