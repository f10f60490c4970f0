package experiments

import (
	"bytes"
	"testing"

	"dhsketch/internal/golden"
	"dhsketch/internal/obs"
)

// TestRunE15GracefulDegradation pins the robustness claims on a small
// ring: mid-churn counting never errors (RunE15 fails otherwise), the
// degradation is visible in Quality-derived columns, repair actually
// moves replicas, and after reconvergence plus one soft-state refresh
// the error returns to the converged baseline. No assertion bounds the
// staleness magnitudes: on a small ring a pass touches only a handful of
// nodes, so whether a fresh corpse sits on its paths is a coin flip per
// round (the full-size sweep at N=1024 is where the proportional signal
// lives). The golden table and trace SHA-256 pin this seed's values.
func TestRunE15GracefulDegradation(t *testing.T) {
	p := tinyParams()
	p.Workers = 1 // one environment feeds the sink: the trace is byte-stable
	jsonlBuf := &bytes.Buffer{}
	jsonl := obs.NewJSONL(jsonlBuf)
	p.Tracer = jsonl
	r, err := RunE15(p, []float64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	checkRender(t, "e15.golden", r)
	golden.CheckSHA256(t, "e15.trace.sha256", jsonlBuf.Bytes())
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}

	quiet, churned := r.Rows[0], r.Rows[1]

	// The zero-churn cell is a pure control: no crashes, no repair, no
	// repair windows, and identical error in every phase.
	if quiet.Crashes != 0 || quiet.Joins != 0 || quiet.RepairTuples != 0 {
		t.Errorf("zero-churn cell saw membership events: %+v", quiet)
	}
	if quiet.RepairWindowFrac != 0 || quiet.StalePerPass != 0 || quiet.FailedPerPass != 0 {
		t.Errorf("zero-churn cell reports degradation: %+v", quiet)
	}
	if quiet.ErrChurn != quiet.ErrBase || quiet.ErrRecovered != quiet.ErrBase {
		t.Errorf("zero-churn error drifted across phases: %+v", quiet)
	}

	// The churned cell crashed nodes for good and joined replacements;
	// the protocol must have repaired replicas and flagged the passes.
	if churned.Crashes == 0 || churned.Joins != churned.Crashes {
		t.Errorf("churn cell membership events off: crashes=%d joins=%d",
			churned.Crashes, churned.Joins)
	}
	if churned.RepairTuples == 0 {
		t.Error("churn moved no replica tuples")
	}
	if churned.ProtoMsgs == 0 {
		t.Error("stabilization sent no protocol messages")
	}
	if churned.RepairWindowFrac != 1 {
		t.Errorf("mid-churn passes not flagged: repair window frac = %v",
			churned.RepairWindowFrac)
	}
	if churned.SettleTicks <= 0 {
		t.Errorf("settle ticks = %d, want > 0", churned.SettleTicks)
	}

	// Graceful degradation: the recovered error returns to the converged
	// baseline. Both are means of a handful of trials on the same ring,
	// so allow estimator noise but not structural loss.
	if diff := churned.ErrRecovered - churned.ErrBase; diff > 0.15 || diff < -0.15 {
		t.Errorf("error did not recover: base %v, recovered %v",
			churned.ErrBase, churned.ErrRecovered)
	}
}

// TestRunE15WorkerInvariance renders the sweep at one and four workers
// and requires byte-identical tables — each churn level builds its own
// deterministic world from the seed.
func TestRunE15WorkerInvariance(t *testing.T) {
	render := func(workers int) string {
		p := tinyParams()
		p.Workers = workers
		r, err := RunE15(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Errorf("tables differ across worker counts:\n--- workers=1\n%s--- workers=4\n%s", a, b)
	}
}
