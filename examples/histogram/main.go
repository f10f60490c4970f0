// Histogram example: build an equi-width histogram over relation data
// scattered across a peer-to-peer overlay, reconstruct it at a single
// node, and compare against the exact distribution (§4.3 of the paper).
//
// Each histogram bucket is one DHS metric; nodes record each tuple they
// store under the bucket its attribute falls in. Reconstruction estimates
// all buckets in ONE counting pass whose hop cost is independent of the
// bucket count — this is what makes histogram-based query optimization
// affordable at internet scale.
//
// Randomness: the overlay derives every stream from master seed 7
// (NewNetwork), and the synthetic relation uses its own PCG(7, 7) — the
// run is fully deterministic and its output never changes.
// main_test.go checks it against testdata/stdout.golden.
//
//	go run ./examples/histogram
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
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
	net := dhsketch.NewNetwork(7, 128)
	d, err := dhsketch.New(net, dhsketch.Config{M: 32})
	if err != nil {
		return err
	}

	// An "orders" relation: 200k tuples with a price attribute following
	// a skewed (approximately Zipfian) distribution over [1, 1000].
	spec := dhsketch.HistogramSpec{
		Relation:  "orders",
		Attribute: "price",
		Min:       1,
		Max:       1000,
		Buckets:   20,
	}
	builder, err := dhsketch.NewHistogramBuilder(d, spec)
	if err != nil {
		return err
	}

	const n = 500000
	rng := rand.New(rand.NewPCG(7, 7))
	nodes := net.Nodes()
	exact := make([]int, spec.Buckets)
	fmt.Fprintf(w, "recording %d tuples from %d nodes...\n", n, len(nodes))
	for i := 0; i < n; i++ {
		// Skewed attribute: squared uniform pushes mass toward low prices.
		u := rng.Float64()
		price := 1 + int(u*u*999)
		src := nodes[rng.IntN(len(nodes))]
		id := dhsketch.ItemID(fmt.Sprintf("orders/%d", i))
		if _, err := builder.Record(src, id, price); err != nil {
			return err
		}
		exact[spec.BucketOf(price)]++
	}

	// Any node can now reconstruct the histogram.
	h, err := dhsketch.ReconstructHistogram(d, spec, net.RandomNode())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reconstruction cost: %d lookups, %d nodes visited, %d hops, %.1f kB\n\n",
		h.Cost.Lookups, h.Cost.NodesVisited, h.Cost.Hops, float64(h.Cost.Bytes)/1024)

	fmt.Fprintln(w, "bucket  range        exact   estimate  err%    histogram")
	var errSum float64
	cells := 0
	for b := 0; b < spec.Buckets; b++ {
		lo, hi := spec.Bounds(b)
		est := h.Counts[b]
		errPct := math.NaN()
		if exact[b] > 0 {
			errPct = 100 * (est - float64(exact[b])) / float64(exact[b])
			if exact[b] > 5000 {
				errSum += math.Abs(errPct)
				cells++
			}
		}
		bar := ""
		for i := 0; i < int(est)/10000; i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%4d    [%4d,%4d)  %6d  %8.0f  %+5.1f  %s\n", b, lo, hi, exact[b], est, errPct, bar)
	}
	fmt.Fprintf(w, "\nmean |error| over populated cells: %.1f%%\n", errSum/float64(cells))

	// Selectivity estimation, the query optimizer's workhorse.
	fmt.Fprintf(w, "\nselectivity(price <= 100)  estimated %.3f, exact %.3f\n",
		h.SelectivityRange(1, 100), exactRange(exact, spec, 1, 100, n))
	fmt.Fprintf(w, "selectivity(400 <= price <= 600) estimated %.3f, exact %.3f\n",
		h.SelectivityRange(400, 600), exactRange(exact, spec, 400, 600, n))
	return nil
}

// exactRange computes the true selectivity from the exact per-bucket
// counts (buckets fully inside the range plus linear parts).
func exactRange(exact []int, spec dhsketch.HistogramSpec, lo, hi, n int) float64 {
	var covered float64
	for b := 0; b < spec.Buckets; b++ {
		blo, bhi := spec.Bounds(b)
		l, r := max(lo, blo), min(hi+1, bhi)
		if r > l {
			covered += float64(exact[b]) * float64(r-l) / float64(bhi-blo)
		}
	}
	return covered / float64(n)
}
