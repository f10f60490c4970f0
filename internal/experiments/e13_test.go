package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dhsketch/internal/golden"
	"dhsketch/internal/obs"
)

func TestRunE13(t *testing.T) {
	p := tinyParams()
	p.Workers = 1 // one environment feeds the sink: the trace is byte-stable
	jsonlBuf := &bytes.Buffer{}
	jsonl := obs.NewJSONL(jsonlBuf)
	p.Tracer = jsonl
	r, err := RunE13(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}

	if r.Load.Passes != int64(p.Trials) {
		t.Errorf("Passes = %d, want %d", r.Load.Passes, p.Trials)
	}
	if r.Load.Events == 0 {
		t.Fatal("aggregator saw no events")
	}

	// Cross-check: the trace-derived probe totals must agree with the
	// nodes' own counters — two independent meters of the same run.
	aggProbes := r.Load.TotalProbes()
	counterProbes := int64(r.Counters.Probed.Mean * float64(r.Counters.Nodes))
	if aggProbes == 0 {
		t.Fatal("no probes traced")
	}
	if diff := aggProbes - counterProbes; diff < -1 || diff > 1 {
		// Mean·N reconstructs the sum up to float rounding.
		t.Errorf("trace probes %d vs counter probes %d", aggProbes, counterProbes)
	}
	if r.Load.ProbesPerNode.Gini != r.Counters.Probed.Gini {
		t.Errorf("probe Gini: trace %v vs counters %v",
			r.Load.ProbesPerNode.Gini, r.Counters.Probed.Gini)
	}

	// The load-balance claim (Table 3, constraint 3): storage and routing
	// load spread over the overlay instead of concentrating on a counter
	// node. A single-node scheme would push these toward 1.
	if g := r.Load.StoresPerNode.Gini; g <= 0 || g > 0.8 {
		t.Errorf("stores/node Gini = %v, want (0, 0.8]", g)
	}
	if g := r.Counters.Routed.Gini; g <= 0 || g > 0.7 {
		t.Errorf("routed/node Gini = %v, want (0, 0.7]", g)
	}

	// Estimation still works while being measured.
	if r.Err > 0.5 {
		t.Errorf("relative error %v too large for a working estimate", r.Err)
	}

	// The heatmap covers multiple intervals, ascending.
	if len(r.Load.Bits) < 2 {
		t.Fatalf("heatmap has %d rows", len(r.Load.Bits))
	}
	for i := 1; i < len(r.Load.Bits); i++ {
		if r.Load.Bits[i].Bit <= r.Load.Bits[i-1].Bit {
			t.Fatal("heatmap not in ascending bit order")
		}
	}

	// The multiplexed JSONL sink saw the same stream.
	lines := strings.Count(jsonlBuf.String(), "\n")
	if uint64(lines) != r.Load.Events {
		t.Errorf("JSONL lines %d != aggregator events %d", lines, r.Load.Events)
	}
	if !strings.Contains(jsonlBuf.String(), `"kind":"probe"`) {
		t.Error("JSONL trace missing probe events")
	}

	checkRender(t, "e13.golden", r)
	golden.CheckSHA256(t, "e13.trace.sha256", jsonlBuf.Bytes())
}
