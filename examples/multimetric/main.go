// Multi-dimensional counting example (§4.2 of the paper): estimating
// many metrics costs the same overlay hops as estimating one, because
// the bit→interval mapping is shared by every bitmap of every metric —
// a probed node answers for all of them at once.
//
// The scenario: a P2P search engine tracks, per keyword, how many unique
// indexed documents contain it (document frequency for IDF ranking). A
// ranking node needs ALL keyword frequencies; with DHS it pays one
// counting pass, not one per keyword.
//
// Randomness: the overlay derives every stream from master seed 11
// (NewNetwork), and the document corpus uses its own PCG(11, 11) — the
// run is fully deterministic and its output never changes.
// main_test.go checks it against testdata/stdout.golden.
//
//	go run ./examples/multimetric
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"os"
	"sort"

	"dhsketch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	net := dhsketch.NewNetwork(11, 256)
	d, err := dhsketch.New(net, dhsketch.Config{M: 32})
	if err != nil {
		return err
	}

	keywords := []string{
		"distributed", "hash", "sketch", "cardinality", "estimation",
		"peer", "overlay", "histogram", "optimizer", "gossip",
	}
	// Keyword k appears in documents with probability 1/(k+2): a
	// realistic document-frequency skew.
	const docs = 100000
	rng := rand.New(rand.NewPCG(11, 11))
	nodes := net.Nodes()
	actual := make(map[string]int, len(keywords))
	metrics := make([]uint64, len(keywords))
	for i, kw := range keywords {
		metrics[i] = dhsketch.MetricID("df|" + kw)
	}

	fmt.Fprintf(w, "indexing %d documents across %d peers...\n", docs, len(nodes))
	for doc := 0; doc < docs; doc++ {
		id := dhsketch.ItemID(fmt.Sprintf("doc-%d", doc))
		src := nodes[rng.IntN(len(nodes))]
		for i, kw := range keywords {
			if rng.Float64() < 1/float64(i+2) {
				actual[kw]++
				if _, err := d.InsertFrom(src, metrics[i], id); err != nil {
					return err
				}
			}
		}
	}

	// One pass estimates every keyword's document frequency.
	querier := net.RandomNode()
	ests, err := d.CountAllFrom(querier, metrics)
	if err != nil {
		return err
	}
	// Contrast with a single-metric pass.
	single, err := d.CountFrom(querier, metrics[0])
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-14s %10s %10s %7s\n", "keyword", "actual df", "estimate", "err%")
	order := make([]int, len(keywords))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return actual[keywords[order[a]]] > actual[keywords[order[b]]] })
	for _, i := range order {
		kw := keywords[i]
		est := ests[i].Value
		fmt.Fprintf(w, "%-14s %10d %10.0f %+7.1f\n", kw, actual[kw], est,
			100*(est-float64(actual[kw]))/float64(actual[kw]))
	}

	all := ests[0].Cost
	fmt.Fprintf(w, "\ncost of estimating all %d keywords: %d hops, %d nodes visited, %.1f kB\n",
		len(keywords), all.Hops, all.NodesVisited, float64(all.Bytes)/1024)
	fmt.Fprintf(w, "cost of estimating just one:        %d hops, %d nodes visited, %.1f kB\n",
		single.Cost.Hops, single.Cost.NodesVisited, float64(single.Cost.Bytes)/1024)
	fmt.Fprintln(w, "\nhop cost is (near-)identical: only the per-probe replies grow (§4.2)")
	return nil
}
