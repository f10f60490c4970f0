// Command calibrate derives the α̃_m bias-correction constants for the
// truncated super-LogLog estimator (the paper's eq. 2) by Monte-Carlo
// simulation: for each m = 2^c it inserts known numbers of distinct
// pseudo-uniform hashes through the production sketch code path, computes
// the raw truncated statistic m₀ · 2^{(1/m₀)·Σ*M} (the estimate divided
// by the table's α̃_m), and sets α̃_m = mean over a sweep of
// cardinality ratios n/m of n / E[raw] — the bias oscillates slightly
// with log(n/m), so the sweep smooths the periodic component.
//
// The resulting table is baked into internal/sketch/alpha.go. Re-run this
// tool and paste its output there if the truncation rule or estimator
// form ever changes.
//
// Randomness: each m gets its own stream, PCG(-seed, m), so the table is
// reproducible for a given -seed (default 1 — the seed the baked-in
// constants were derived with) and the rows are independent of the
// [-cmin, -cmax] range requested.
//
// Usage:
//
//	calibrate [-cmin 1] [-cmax 16] [-seed 1] [-budget 2e8]
//
// 1 ≤ -cmin ≤ -cmax ≤ 16, the rows alpha.go's table holds; any other
// range is a flag error (exit 2).
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"dhsketch/internal/sketch"
)

// maxC is the largest log₂ m that alpha.go's α̃_m table holds.
const maxC = 16

func main() {
	cmin := flag.Int("cmin", 1, "smallest log2(m) to calibrate")
	cmax := flag.Int("cmax", maxC, "largest log2(m) to calibrate")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	budget := flag.Float64("budget", 2e8, "approximate insertions per m value")
	flag.Parse()
	if *cmin < 1 || *cmax > maxC || *cmin > *cmax {
		fmt.Fprintf(os.Stderr, "calibrate: want 1 ≤ -cmin ≤ -cmax ≤ %d, got -cmin %d -cmax %d\n", maxC, *cmin, *cmax)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Println("// α̃_m calibration (paste into internal/sketch/alpha.go)")
	for c := *cmin; c <= *cmax; c++ {
		m := 1 << c
		alpha := calibrate(m, *seed, *budget)
		fmt.Printf("\t%.5f, // m=%d\n", alpha, m)
	}
}

// calibrate estimates α̃_m for one m = 2^c.
func calibrate(m int, seed uint64, budget float64) float64 {
	rng := rand.New(rand.NewPCG(seed, uint64(m)))

	// Cardinality ratios n/m to average over: half-decade log2 steps
	// across one full decade.
	ratios := []float64{64, 91, 128, 181, 256, 362, 512, 724, 1024}
	var sumAlpha float64
	for _, ratio := range ratios {
		n := int(ratio * float64(m))
		trials := int(budget / float64(len(ratios)) / float64(n))
		if trials < 8 {
			trials = 8
		}
		if trials > 20000 {
			trials = 20000
		}
		var rawSum float64
		for t := 0; t < trials; t++ {
			rawSum += rawEstimate(rng, m, n)
		}
		sumAlpha += float64(n) / (rawSum / float64(trials))
	}
	return sumAlpha / float64(len(ratios))
}

// rawEstimate inserts n distinct random hashes into a fresh super-LogLog
// sketch and returns its raw statistic: the estimate without α̃_m.
func rawEstimate(rng *rand.Rand, m, n int) float64 {
	s, err := sketch.New(sketch.KindSuperLogLog, m, 32)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		s.Add(rng.Uint64())
	}
	return s.Estimate() / sketch.AlphaSuperLogLog(m)
}
