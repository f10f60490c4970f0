package experiments

import (
	"bytes"
	"io"
	"math"
	"testing"

	"dhsketch/internal/golden"
	"dhsketch/internal/sketch"
)

// tinyParams keeps experiment tests fast: a small overlay and heavily
// scaled-down relations. Accuracy assertions are correspondingly loose —
// the tests check that the drivers run, account costs, and produce sane
// shapes, and each table is pinned byte for byte by a golden file;
// paper-fidelity runs happen via cmd/dhsbench.
func tinyParams() Params {
	return Params{
		Seed:   7,
		Nodes:  128,
		Scale:  1000, // Q..T = 10k..80k tuples
		M:      64,
		Trials: 3,
	}
}

// renderer is every experiment's result.
type renderer interface{ Render(w io.Writer) }

// checkRender pins r's rendered table to testdata/name.
func checkRender(t *testing.T, name string, r renderer) {
	t.Helper()
	var buf bytes.Buffer
	r.Render(&buf)
	golden.Check(t, name, buf.Bytes())
}

func TestDefaults(t *testing.T) {
	p := Params{}.Defaults()
	if p.Nodes != 1024 || p.M != 512 || p.K != 24 || p.Lim != 5 || p.Buckets != 100 {
		t.Errorf("defaults = %+v", p)
	}
	// Explicit values survive.
	p2 := Params{Nodes: 16, M: 4}.Defaults()
	if p2.Nodes != 16 || p2.M != 4 {
		t.Error("Defaults overwrote explicit values")
	}
}

func TestRunE1(t *testing.T) {
	p := tinyParams()
	p.Buckets = 20
	res, err := RunE1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRelation) != 4 {
		t.Fatalf("got %d relations", len(res.PerRelation))
	}
	if res.AvgHopsPerInsert <= 0 || res.AvgHopsPerInsert > math.Log2(128) {
		t.Errorf("avg hops/insert = %v", res.AvgHopsPerInsert)
	}
	if res.AvgBytesPerInsert <= 0 {
		t.Error("no bytes accounted")
	}
	if res.StoragePerNodeMean <= 0 {
		t.Error("no storage recorded")
	}
	if res.BulkLookupsPerNode < 1 || res.BulkLookupsPerNode > int(p.Defaults().K) {
		t.Errorf("bulk lookups = %d", res.BulkLookupsPerNode)
	}
	checkRender(t, "e1.golden", res)
}

func TestRunE2(t *testing.T) {
	res, err := RunE2(tinyParams(), []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SLL.AvgVisited() <= 0 || row.PCSA.AvgVisited() <= 0 {
			t.Errorf("m=%d: no nodes visited", row.M)
		}
		if row.SLL.AvgHops() <= 0 || row.SLL.AvgBytes() <= 0 {
			t.Errorf("m=%d: missing cost accounting", row.M)
		}
		if row.SLL.AvgErr() > 1 || row.PCSA.AvgErr() > 1 {
			t.Errorf("m=%d: error above 100%%: %v/%v", row.M, row.SLL.AvgErr(), row.PCSA.AvgErr())
		}
	}
	checkRender(t, "e2.golden", res)
}

func TestRunE3(t *testing.T) {
	res, err := RunE3(tinyParams(), []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Counting hops grow sublinearly: quadrupling N must far less than
	// quadruple the hops.
	h0, h1 := res.Rows[0].SLL.AvgHops(), res.Rows[1].SLL.AvgHops()
	if h1 > 2.5*h0 {
		t.Errorf("hops not logarithmic: %v → %v", h0, h1)
	}
	checkRender(t, "e3.golden", res)
}

func TestRunE4DegradationShape(t *testing.T) {
	// Sweep into the degraded regime: with N=128 and Q=10k tuples,
	// α(m) = 10000/(128m) < 1 from m ≥ 128 on; error must blow up at
	// large m, and PCSA must degrade more than sLL there — the paper's
	// central accuracy observation.
	res, err := RunE4(tinyParams(), []int{16, 512})
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Rows[0], res.Rows[1]
	if large.ErrPCSA < small.ErrPCSA {
		t.Errorf("PCSA error did not grow into degraded regime: %v → %v", small.ErrPCSA, large.ErrPCSA)
	}
	if large.ErrPCSA < large.ErrSLL {
		t.Errorf("expected PCSA (%v) to degrade beyond sLL (%v) at m=512", large.ErrPCSA, large.ErrSLL)
	}
	if small.Alpha < 1 {
		t.Errorf("baseline row should be in the safe regime, alpha=%v", small.Alpha)
	}
	checkRender(t, "e4.golden", res)
}

func TestRunE5(t *testing.T) {
	p := tinyParams()
	p.Scale = 2000
	p.Buckets = 10
	p.Trials = 2
	res, err := RunE5(p, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.SLL.AvgVisited() <= 0 || row.PCSA.AvgVisited() <= 0 {
		t.Error("no probing recorded")
	}
	if row.SLL.AvgBytes() <= 0 {
		t.Error("no bytes recorded")
	}
	checkRender(t, "e5.golden", res)
}

func TestRunE6(t *testing.T) {
	p := tinyParams()
	p.Scale = 2000
	p.Buckets = 10
	p.Trials = 2
	res, err := RunE6(p, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanCellErr < 0 || row.MeanCellErr > 2 {
			t.Errorf("m=%d: cell error %v", row.M, row.MeanCellErr)
		}
	}
	checkRender(t, "e6.golden", res)
}

func TestRunE7(t *testing.T) {
	p := tinyParams()
	p.Nodes = 64
	p.Buckets = 20
	res, err := RunE7(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cost ordering: optimal ≤ DHS pick ≤ worst; naive within [optimal,
	// worst].
	if res.OptimalBytes > res.DHSPickBytes+1e-6 {
		t.Errorf("optimal %v above DHS pick %v", res.OptimalBytes, res.DHSPickBytes)
	}
	if res.DHSPickBytes > res.WorstBytes+1e-6 {
		t.Errorf("DHS pick %v above worst %v", res.DHSPickBytes, res.WorstBytes)
	}
	if res.NaiveBytes < res.OptimalBytes-1e-6 || res.NaiveBytes > res.WorstBytes+1e-6 {
		t.Errorf("naive %v outside [optimal, worst]", res.NaiveBytes)
	}
	// The histogram reconstruction must be far cheaper than the plan
	// savings headroom (the paper's ~1 MB vs tens of MB).
	if res.HistReconBytes <= 0 {
		t.Error("no reconstruction cost recorded")
	}
	if res.HistReconBytes > res.WorstBytes {
		t.Errorf("reconstruction (%v) costs more than the whole worst plan (%v)", res.HistReconBytes, res.WorstBytes)
	}
	checkRender(t, "e7.golden", res)
}

func TestRunE8(t *testing.T) {
	p := tinyParams()
	p.Trials = 8 // ×5 = 40 sketch trials per config
	res, err := RunE8(p, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Measured σ within a factor 2 of theory (loose: 40 samples).
		if row.MeasuredStdDev > 2*row.Theory+0.01 || row.MeasuredStdDev < row.Theory/3 {
			t.Errorf("%v m=%d: measured σ %v vs theory %v", row.Kind, row.M, row.MeasuredStdDev, row.Theory)
		}
		if math.Abs(row.Bias) > 3*row.Theory {
			t.Errorf("%v m=%d: bias %v", row.Kind, row.M, row.Bias)
		}
	}
	checkRender(t, "e8.golden", res)
}

func TestRunE9(t *testing.T) {
	res, err := RunE9(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if math.Abs(row.PredictedMiss-row.SimulatedMiss) > 0.02 {
			t.Errorf("N'=%d n'=%d: eq.5 %v vs sim %v", row.Nodes, row.Items, row.PredictedMiss, row.SimulatedMiss)
		}
	}
	if !res.DefaultLimSufficient {
		t.Error("lim=5 should suffice for alpha >= 1 (the paper's §4.1 claim)")
	}
	checkRender(t, "e9.golden", res)
}

func TestRunE10(t *testing.T) {
	p := tinyParams()
	p.Scale = 500 // Q = 20k: enough mass to survive failures
	p.M = 16
	res, err := RunE10(p, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]E10Row{}
	for _, row := range res.Rows {
		byKey[row.Variant+"/"+fmtFrac(row.FailedFrac)] = row
	}
	// Replication must cost more at insert time...
	if byKey["R=3/0"].InsertHops <= byKey["R=0/0"].InsertHops {
		t.Error("replication did not increase insertion cost")
	}
	// ...and with 30% failures, R=3 must beat R=0 on error.
	if byKey["R=3/0.3"].Err >= byKey["R=0/0.3"].Err+0.05 {
		t.Errorf("R=3 error %v not better than R=0 error %v under failures",
			byKey["R=3/0.3"].Err, byKey["R=0/0.3"].Err)
	}
	checkRender(t, "e10.golden", res)
}

func fmtFrac(f float64) string {
	if f == 0 {
		return "0"
	}
	return "0.3"
}

func TestRunE11(t *testing.T) {
	p := tinyParams()
	// Keep DHS in its guaranteed regime: α = items/(m·N) = 5000/(16·128) ≈ 2.4.
	p.Scale = 200
	p.M = 16
	res, err := RunE11(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rows := map[string]E11Row{}
	for _, r := range res.Rows {
		rows[r.Method] = r
	}
	dhs := rows["DHS (sLL)"]
	if !dhs.DupInsensitive {
		t.Error("DHS must be duplicate-insensitive")
	}
	if dhs.Err > 0.5 {
		t.Errorf("DHS error %v", dhs.Err)
	}
	// Duplicate-sensitive schemes overcount by ~2× (copies = 2).
	for _, name := range []string{"convergecast (raw sums)"} {
		if rows[name].Err < 0.5 {
			t.Errorf("%s should overcount duplicates, err = %v", name, rows[name].Err)
		}
	}
	// The single-node counter concentrates load far beyond DHS.
	if rows["single-node counter"].MaxNodeLoad < 10*dhs.MaxNodeLoad {
		t.Errorf("centralized load %d not clearly above DHS %d",
			rows["single-node counter"].MaxNodeLoad, dhs.MaxNodeLoad)
	}
	// DHS queries touch far fewer nodes than convergecast floods.
	if dhs.QueryMessages >= rows["convergecast (sketches)"].QueryMessages {
		t.Error("DHS query should cost fewer messages than a convergecast flood")
	}
	checkRender(t, "e11.golden", res)
}

func TestRunE12F(t *testing.T) {
	p := tinyParams()
	p.Trials = 4
	scenarios := []E12FScenario{
		DefaultE12FScenarios[0], // clean baseline
		DefaultE12FScenarios[2], // loss 10% + down 10% — the acceptance regime
	}
	res, err := RunE12F(p, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*2*2 { // scenarios × kinds × R
		t.Fatalf("rows = %d", len(res.Rows))
	}
	cell := func(scenario string, kind sketch.Kind, r int) E12FRow {
		for _, row := range res.Rows {
			if row.Scenario == scenario && row.Kind == kind && row.R == r {
				return row
			}
		}
		t.Fatalf("missing cell %s/%v/R=%d", scenario, kind, r)
		return E12FRow{}
	}
	faulty := scenarios[1].Name
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		clean := cell("clean", kind, 3)
		hurt := cell(faulty, kind, 3)
		// The acceptance criterion: at R=3, the degraded error stays
		// within 2× the clean baseline (plus slack for tiny-trial noise).
		if hurt.Err > 2*clean.Err+0.05 {
			t.Errorf("%v R=3: faulty err %.3f vs clean %.3f exceeds 2× degradation",
				kind, hurt.Err, clean.Err)
		}
		if clean.DegradedFrac != 0 || clean.FailedProbes != 0 || clean.Lost != 0 {
			t.Errorf("%v clean cell shows fault artifacts: %+v", kind, clean)
		}
		if hurt.DegradedFrac == 0 || hurt.FailedProbes == 0 || hurt.Lost == 0 {
			t.Errorf("%v faulty cell shows no degradation evidence: %+v", kind, hurt)
		}
		if hurt.InsertRetries == 0 {
			t.Errorf("%v faulty cell recorded no insert retries", kind)
		}
		// Retries keep the load phase nearly lossless at 10%/10%.
		if float64(hurt.InsertFailed)/float64(res.Items) > 0.05 {
			t.Errorf("%v: %d/%d inserts lost despite retries", kind, hurt.InsertFailed, res.Items)
		}
	}
	checkRender(t, "e12f.golden", res)
}

func TestRunE12(t *testing.T) {
	p := tinyParams()
	p.Nodes = 64
	res, err := RunE12(p, []int64{10, 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	fast, slow := res.Rows[0], res.Rows[1]
	// The §3.3 trade-off: frequent refresh costs more maintenance
	// bandwidth...
	if fast.MaintBytesPerTick <= slow.MaintBytesPerTick {
		t.Errorf("fast refresh (%v B/tick) not costlier than slow (%v)",
			fast.MaintBytesPerTick, slow.MaintBytesPerTick)
	}
	// ...and both configurations must still count (loose bound; the
	// slow one may degrade under churn).
	if fast.MeanErr > 0.6 {
		t.Errorf("fast-refresh error %.2f", fast.MeanErr)
	}
	checkRender(t, "e12.golden", res)
}
