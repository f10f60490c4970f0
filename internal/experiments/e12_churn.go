package experiments

import (
	"fmt"
	"io"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/sketch"
)

// E12Row is one refresh-period setting of the churn sweep.
type E12Row struct {
	// RefreshPeriod is how often item holders re-insert, in ticks; TTL
	// is set to twice the period.
	RefreshPeriod int64
	// MaintBytesPerTick is the maintenance bandwidth the soft-state
	// refreshes consume.
	MaintBytesPerTick float64
	// MeanErr is the mean counting error across churn rounds.
	MeanErr float64
	// WorstErr is the worst round.
	WorstErr float64
}

// E12Result quantifies the §3.3 trade-off the paper states qualitatively:
// "larger time-out values will result in less updates per time unit...
// a smaller value will allow for faster adaptation to abrupt
// fluctuations... but will incur a higher maintenance cost". A churning
// overlay (nodes crash and join continuously) is counted repeatedly
// while item holders refresh on different periods.
type E12Result struct {
	Params Params
	Items  int
	Rows   []E12Row
}

// DefaultE12Periods sweeps refresh periods in ticks.
var DefaultE12Periods = []int64{10, 20, 40, 80}

// RunE12 runs the churn/maintenance sweep.
func RunE12(p Params, periods []int64) (*E12Result, error) {
	p = p.Defaults()
	if len(periods) == 0 {
		periods = DefaultE12Periods
	}
	items := 500000 / p.Scale
	if items < 2000 {
		items = 2000
	}
	// Size m for the guaranteed regime.
	m := guaranteedM(items, p.Nodes, p.M)

	const (
		rounds        = 12
		ticksPerRound = 10
		churnPerRound = 0.05 // 5% of nodes crash and rejoin per round
	)

	res := &E12Result{Params: p, Items: items}
	for _, period := range periods {
		env := newEnv(p)
		ring := chord.New(env, p.Nodes)
		d, err := core.New(core.Config{
			Overlay: ring, Env: env, K: p.K, M: m, Lim: p.Lim,
			Kind: sketch.KindSuperLogLog, TTL: 2 * period,
		})
		if err != nil {
			return nil, err
		}
		metric := core.MetricID("e12")
		ids := make([]uint64, items)
		for i := range ids {
			ids[i] = core.ItemID(fmt.Sprintf("e12-%d", i))
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
		maintStart := env.Traffic.Snapshot()

		var errSum, worst float64
		lastRefresh := env.Clock.Now()
		churn := int(churnPerRound * float64(p.Nodes))
		for round := 0; round < rounds; round++ {
			ring.FailRandom(churn)
			for j := 0; j < churn; j++ {
				ring.Join(fmt.Sprintf("e12-join-%d-%d", round, j))
			}
			env.Clock.Advance(ticksPerRound)
			if env.Clock.Now()-lastRefresh >= period {
				if err := refresh(); err != nil {
					return nil, err
				}
				lastRefresh = env.Clock.Now()
			}
			est, err := d.Count(metric)
			if err != nil {
				return nil, err
			}
			e := est.Value/float64(items) - 1
			if e < 0 {
				e = -e
			}
			errSum += e
			if e > worst {
				worst = e
			}
		}
		maint := env.Traffic.Snapshot().Sub(maintStart)
		res.Rows = append(res.Rows, E12Row{
			RefreshPeriod:     period,
			MaintBytesPerTick: float64(maint.Bytes) / float64(rounds*ticksPerRound),
			MeanErr:           errSum / rounds,
			WorstErr:          worst,
		})
	}
	return res, nil
}

// Render writes the churn/maintenance table.
func (r *E12Result) Render(w io.Writer) {
	tw := newTable(w)
	fmt.Fprintf(tw, "E12 soft-state maintenance under churn (N=%d, %d items, 5%%/round churn)\n",
		r.Params.Nodes, r.Items)
	fmt.Fprintln(tw, "refresh period\tTTL\tmaint kB/tick\tmean err %\tworst err %")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\t%.1f\n",
			row.RefreshPeriod, 2*row.RefreshPeriod,
			kb(row.MaintBytesPerTick), 100*row.MeanErr, 100*row.WorstErr)
	}
	tw.Flush()
}
