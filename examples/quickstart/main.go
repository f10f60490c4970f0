// Quickstart: count distinct items across a peer-to-peer overlay with a
// Distributed Hash Sketch.
//
// A 1024-node Chord-like network is simulated in-process; 100 000 items
// are inserted from random nodes, and a randomly chosen node estimates
// the cardinality by probing O(k) ID-space intervals — no node ever sees
// more than a few of the sketch's bits.
//
// Randomness: everything — overlay layout, item IDs, originator choices —
// derives from master seed 42 (NewNetwork), so the run is fully
// deterministic and its output never changes.
// main_test.go checks it against testdata/stdout.golden.
//
//	go run ./examples/quickstart
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
	// A deterministic 1024-node overlay (seed 42).
	net := dhsketch.NewNetwork(42, 1024)

	// A DHS with 24-bit keys, 64 super-LogLog bitmap vectors, and probe
	// budget lim = 5. Sizing rule (§4.1 of the paper): the constant
	// probe budget is guaranteed to find set bits when the counted
	// cardinality n satisfies n ≥ m·N — here 100 000 ≥ 64·1024. For
	// larger counts, raise m for more accuracy (σ ≈ 1.05/√m).
	d, err := dhsketch.New(net, dhsketch.Config{M: 64})
	if err != nil {
		return err
	}

	metric := dhsketch.MetricID("distinct-documents")

	const n = 100000
	fmt.Fprintf(w, "inserting %d distinct documents from random nodes...\n", n)
	var insertHops int64
	for i := 0; i < n; i++ {
		cost, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("doc-%d", i)))
		if err != nil {
			return err
		}
		insertHops += cost.Hops
	}
	fmt.Fprintf(w, "  avg %.2f overlay hops per insertion (O(log N), log2 N = 10)\n",
		float64(insertHops)/n)

	// Duplicate insensitivity: re-inserting changes nothing but
	// refreshes soft-state timestamps.
	for i := 0; i < n/2; i++ {
		if _, err := d.Insert(metric, dhsketch.ItemID(fmt.Sprintf("doc-%d", i))); err != nil {
			return err
		}
	}

	est, err := d.Count(metric)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nestimate: %.0f distinct documents (actual %d, error %+.2f%%)\n",
		est.Value, n, 100*(est.Value-n)/n)
	fmt.Fprintf(w, "counting cost: %d DHT lookups, %d nodes visited, %d hops, %.1f kB\n",
		est.Cost.Lookups, est.Cost.NodesVisited, est.Cost.Hops, float64(est.Cost.Bytes)/1024)
	fmt.Fprintf(w, "total network traffic this run: %v\n", net.TrafficTotal())
	return nil
}
