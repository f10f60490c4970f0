package core

import (
	"fmt"
	"slices"
	"testing"

	"dhsketch/internal/sketch"
)

// TestScanReadsLocalSketch: a DHS whose scan walks every node of each
// interval reads exactly what the local sketch of the same items holds.
// With Lim ≥ N+1 each interval's successor walk wraps the whole ring, so
// no stored bit goes unseen; the per-vector statistics and the estimate
// must then equal the local sketch's for every kind. The local sketch's
// width is k − log₂ m, the bits the DHS key leaves after the vector index.
func TestScanReadsLocalSketch(t *testing.T) {
	const nodes, k, m, n = 16, 24, 64, 5000
	const w = k - 6 // log₂ 64 = 6
	for _, kind := range []sketch.Kind{sketch.KindPCSA, sketch.KindSuperLogLog, sketch.KindLogLog, sketch.KindHyperLogLog} {
		t.Run(kind.String(), func(t *testing.T) {
			d, _, _ := testDHS(t, 3, nodes, Config{K: k, M: m, Kind: kind, Lim: nodes + 1})
			local, err := sketch.New(kind, m, w)
			if err != nil {
				t.Fatal(err)
			}
			metric := MetricID("local-parity")
			for i := 0; i < n; i++ {
				id := ItemID(fmt.Sprintf("item-%d", i))
				if _, err := d.Insert(metric, id); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				local.Add(id)
			}
			est, err := d.Count(metric)
			if err != nil {
				t.Fatalf("Count: %v", err)
			}
			if est.Quality.Degraded {
				t.Fatalf("clean ring gave a degraded count: %+v", est.Quality)
			}

			// The DHS's R against the local statistic: leftmost zeros for
			// PCSA, and for the register kinds the maximum bit position,
			// which is the local rank minus one (-1 = empty).
			var want []int
			switch l := local.(type) {
			case *sketch.PCSA:
				want = l.LeftmostZeros()
			case *sketch.Registers:
				for _, q := range l.Ranks() {
					want = append(want, int(q)-1)
				}
			}
			if !slices.Equal(est.R, want) {
				t.Errorf("DHS statistics differ from the local sketch's:\n dhs   %v\n local %v", est.R, want)
			}
			if got, want := est.Value, local.Estimate(); got != want {
				t.Errorf("DHS estimate %v, local sketch %v", got, want)
			}
		})
	}
}
