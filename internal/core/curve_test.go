package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/golden"
	"dhsketch/internal/hashutil"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// TestDHSAccuracyCurve pins the second block of the accuracy curve (the
// first, on local sketches, is internal/sketch's TestAccuracyCurve): the
// simulated DHS on a converged ring of N = 256 at lim = 5, at the daemons'
// geometry (k = 16, m = 64) and the paper's (24 / 512), for α = n/(m·N) of
// 0.05, 0.5 and 2, over 5 seeds. Each seed's items go into one ring, which
// a DHS of each kind then counts. A row is the mean est/n; the probe loss,
// the share of vectors whose statistic the scan read otherwise than the
// local sketch of the same items (which a lossless scan reads,
// TestScanReadsLocalSketch); the seeds outside |est − n| ≤ 3·StdError(m)·n;
// and the seeds flagged Degraded. It records what the DHS does today, not a
// contract: a change that moves a row re-pins the file with -update and says
// which rows moved and why.
func TestDHSAccuracyCurve(t *testing.T) {
	const nodes, lim, seeds = 256, 5, 5
	kinds := []sketch.Kind{sketch.KindPCSA, sketch.KindSuperLogLog, sketch.KindLogLog, sketch.KindHyperLogLog}
	var out strings.Builder
	out.WriteString("kind          k/m     alpha  n        est/n      loss       outside  degraded\n")
	for _, g := range []struct {
		k uint
		m int
	}{{16, 64}, {24, 512}} {
		w := g.k - hashutil.Log2(uint64(g.m))
		for _, alpha := range []float64{0.05, 0.5, 2} {
			n := int(alpha * float64(g.m*nodes))
			type cell struct {
				est, loss     float64
				out, degraded int
			}
			cells := make([]cell, len(kinds))
			for seed := uint64(1); seed <= seeds; seed++ {
				env := sim.NewEnv(seed)
				ring := chord.New(env, nodes)
				writer, err := New(Config{Overlay: ring, Env: env, K: g.k, M: g.m, Lim: lim})
				if err != nil {
					t.Fatal(err)
				}
				locals := make([]sketch.Estimator, len(kinds))
				for i, kind := range kinds {
					if locals[i], err = sketch.New(kind, g.m, w); err != nil {
						t.Fatal(err)
					}
				}
				const metric = 1
				rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
				for i := 0; i < n; i++ {
					item := rng.Uint64()
					if _, err := writer.Insert(metric, item); err != nil {
						t.Fatalf("Insert: %v", err)
					}
					for _, l := range locals {
						l.Add(item)
					}
				}
				for i, kind := range kinds {
					d, err := New(Config{Overlay: ring, Env: env, K: g.k, M: g.m, Kind: kind, Lim: lim})
					if err != nil {
						t.Fatal(err)
					}
					est, err := d.Count(metric)
					if err != nil {
						t.Fatalf("Count: %v", err)
					}
					c := &cells[i]
					c.est += est.Value / float64(n) / seeds
					c.loss += lostVectors(est.R, locals[i]) / seeds
					if math.Abs(est.Value-float64(n)) > 3*kind.StdError(g.m)*float64(n) {
						c.out++
					}
					if est.Quality.Degraded {
						c.degraded++
					}
				}
			}
			for i, kind := range kinds {
				c := cells[i]
				fmt.Fprintf(&out, "%-13s %-7s %-6.2f %-8d %-10.4g %-10.4g %d/%-6d %d/%d\n",
					kind, fmt.Sprintf("%d/%d", g.k, g.m), alpha, n, c.est, c.loss, c.out, seeds, c.degraded, seeds)
			}
		}
	}
	golden.Check(t, "dhscurve.golden", []byte(out.String()))
}

// lostVectors is the share of vectors whose statistic in r differs from the
// local sketch's: the leftmost zero for PCSA, and for the register kinds the
// highest set position, the rank minus one.
func lostVectors(r []int, local sketch.Estimator) float64 {
	var want []int
	switch l := local.(type) {
	case *sketch.PCSA:
		want = l.LeftmostZeros()
	case *sketch.Registers:
		for _, q := range l.Ranks() {
			want = append(want, int(q)-1)
		}
	}
	lost := 0
	for v := range r {
		if r[v] != want[v] {
			lost++
		}
	}
	return float64(lost) / float64(len(r))
}
