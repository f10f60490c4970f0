package experiments

// Determinism contract of the parallel experiment engine: a sweep's
// rendered table must be byte-for-byte identical at every worker count,
// because each cell builds its own world from Params.Seed and the runner
// returns rows in cell order.

import (
	"bytes"
	"runtime"
	"testing"
)

// workerCounts covers the sequential path, a fixed fan-out, and whatever
// this machine's CPU count is.
func workerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// renderAtWorkers runs the experiment at each worker count and returns
// the rendered tables keyed by worker count.
func renderAtWorkers(t *testing.T, run func(p Params) (renderer, error)) map[int]string {
	t.Helper()
	out := map[int]string{}
	for _, w := range workerCounts() {
		p := tinyParams()
		p.Workers = w
		res, err := run(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		out[w] = buf.String()
	}
	return out
}

func assertIdentical(t *testing.T, tables map[int]string) {
	t.Helper()
	want := tables[1]
	if want == "" {
		t.Fatal("sequential run rendered nothing")
	}
	for w, got := range tables {
		if got != want {
			t.Errorf("workers=%d table differs from sequential run:\n%s\nvs\n%s", w, got, want)
		}
	}
}

func TestRunE3DeterministicAcrossWorkers(t *testing.T) {
	assertIdentical(t, renderAtWorkers(t, func(p Params) (renderer, error) {
		return RunE3(p, []int{64, 128, 256})
	}))
}

func TestRunE4DeterministicAcrossWorkers(t *testing.T) {
	assertIdentical(t, renderAtWorkers(t, func(p Params) (renderer, error) {
		return RunE4(p, []int{16, 64, 256})
	}))
}

func TestRunE8DeterministicAcrossWorkers(t *testing.T) {
	assertIdentical(t, renderAtWorkers(t, func(p Params) (renderer, error) {
		p.Trials = 4
		return RunE8(p, []int{64, 256})
	}))
}

func TestRunE12FDeterministicAcrossWorkers(t *testing.T) {
	assertIdentical(t, renderAtWorkers(t, func(p Params) (renderer, error) {
		p.Trials = 2
		return RunE12F(p, []E12FScenario{DefaultE12FScenarios[0], DefaultE12FScenarios[1]})
	}))
}
