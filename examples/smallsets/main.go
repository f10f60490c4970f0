// Small-set counting example: what happens below the α = n/(m·N) ≥ 1
// regime, and what the adaptive two-phase probing of §4.1 does there.
//
// The constant probe budget lim = 5 guarantees (p ≥ 0.99) that counting
// finds set bits only while the counted cardinality n is at least m·N.
// Counting a small set on a big overlay breaks that premise: probes come
// up empty, bits are missed, and the error grows (9.6 % at α = 1.98,
// 26.5 % at α = 0.19 below). The paper's remedy (i) derives a larger
// per-interval budget from eq. 6 using a first-pass estimate —
// DHS.CountAdaptive. It is no rescue. It spends about twice the probes,
// and over four trials per row it is better at α = 0.99 (6.1 % vs 7.8 %)
// and α = 0.19 (17.1 % vs 26.5 %) but worse at α = 1.98 (12.9 % vs 9.6 %)
// and α = 0.46 (20.2 % vs 20.0 %). The misses are mostly directional,
// which budget alone cannot fix: EXPERIMENTS.md ("Ablations") has the
// remedy hierarchy TestSubAlphaRemedyHierarchy measures.
//
// Randomness: everything derives from master seed 12 (NewNetwork), so
// the run is fully deterministic and its output never changes.
// main_test.go checks it against testdata/stdout.golden.
//
//	go run ./examples/smallsets
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dhsketch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	const (
		peers = 1024
		m     = 128
	)
	net := dhsketch.NewNetwork(12, peers)
	d, err := dhsketch.New(net, dhsketch.Config{M: m})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "overlay: %d nodes, m = %d bitmaps → guaranteed regime needs n ≥ %d\n\n",
		peers, m, m*peers)
	fmt.Fprintf(w, "%10s %8s %20s %20s %16s\n", "n", "α", "plain |err| (lim=5)", "adaptive |err|", "probes")

	const trials = 4
	for _, n := range []int{260000, 130000, 60000, 25000} {
		var plainErr, adaptErr float64
		var plainProbes, adaptProbes int
		for trial := 0; trial < trials; trial++ {
			metric := dhsketch.MetricID(fmt.Sprintf("set-%d-%d", n, trial))
			for i := 0; i < n; i++ {
				if _, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("s%d-%d-%d", n, trial, i))); err != nil {
					return err
				}
			}
			plain, err := d.Count(metric)
			if err != nil {
				return err
			}
			adaptive, err := d.CountAdaptive(metric, 0.99)
			if err != nil {
				return err
			}
			plainErr += abs(plain.Value-float64(n)) / float64(n)
			adaptErr += abs(adaptive.Value-float64(n)) / float64(n)
			plainProbes += plain.Cost.NodesVisited
			adaptProbes += adaptive.Cost.NodesVisited
		}
		alpha := float64(n) / float64(m*peers)
		fmt.Fprintf(w, "%10d %8.2f %19.1f%% %19.1f%% %10d → %d\n",
			n, alpha, 100*plainErr/trials, 100*adaptErr/trials,
			plainProbes/trials, adaptProbes/trials)
	}

	fmt.Fprintln(w, "\nthe alternative remedies of §4.1 also work:")
	fmt.Fprintf(w, "  eq. 6 says counting n = 25000 here needs lim = %d (vs default 5)\n",
		dhsketch.RetryLimit(float64(peers)/2, 25000.0/2, 0.99, m, 0))
	fmt.Fprintln(w, "  or run the metric on a sub-overlay (supernodes), or replicate bits")
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
