package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dhsketch/internal/golden"
	"dhsketch/internal/hashutil"
)

// TestAccuracyCurve pins how each estimator does across its whole range, at
// the daemons' geometry (k = 16, m = 64) and the paper's (24 / 512), on local
// sketches of width k − log₂ m: what a lossless DHS scan reads
// (TestScanReadsLocalSketch in internal/core). For n from 0 to 10⁶, over 10
// seeds of pseudo-uniform hashes, a row is the mean est/n (at n = 0 the mean
// estimate), the RMSE of (est − n)/max(n, 1), and how many seeds fall outside
// |est − n| ≤ 3·StdError(m)·n. It is a record of what the estimators do, not
// a contract: a change that moves a row re-pins the file with -update and
// says which rows moved and why.
func TestAccuracyCurve(t *testing.T) {
	const seeds = 10
	kinds := []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog}
	ns := []int{0, 1, 10, 100, 1e3, 1e4, 1e5, 1e6}
	var out strings.Builder
	out.WriteString("kind          k/m     n        est/n      rmse       outside\n")
	for _, g := range []struct {
		k uint
		m int
	}{{16, 64}, {24, 512}} {
		w := g.k - hashutil.Log2(uint64(g.m))
		// est[kind][n][seed]: every kind reads the same hashes, added once
		// up to each n in turn.
		est := make([][][seeds]float64, len(kinds))
		for i := range est {
			est[i] = make([][seeds]float64, len(ns))
		}
		for seed := 0; seed < seeds; seed++ {
			sketches := make([]Estimator, len(kinds))
			for i, kind := range kinds {
				sketches[i] = mustNew(t, kind, g.m, w)
			}
			rng := rand.New(rand.NewPCG(uint64(seed)+1, 0x9e3779b97f4a7c15))
			added := 0
			for j, n := range ns {
				for ; added < n; added++ {
					h := rng.Uint64()
					for _, s := range sketches {
						s.Add(h)
					}
				}
				for i, s := range sketches {
					est[i][j][seed] = s.Estimate()
				}
			}
		}
		for i, kind := range kinds {
			bound := 3 * kind.StdError(g.m)
			for j, n := range ns {
				scale := float64(max(n, 1))
				var mean, sq float64
				outside := 0
				for _, e := range est[i][j] {
					mean += e / scale / seeds
					sq += (e - float64(n)) * (e - float64(n)) / (scale * scale) / seeds
					if math.Abs(e-float64(n)) > bound*float64(n) {
						outside++
					}
				}
				fmt.Fprintf(&out, "%-13s %-7s %-8d %-10.4g %-10.4g %d/%d\n",
					kind, fmt.Sprintf("%d/%d", g.k, g.m), n, mean, math.Sqrt(sq), outside, seeds)
			}
		}
	}
	golden.Check(t, "curve.golden", []byte(out.String()))
}
