// File-sharing example: duplicate-insensitive counting, the paper's
// opening motivation — "file-sharing peer-to-peer systems often need to
// know the total number of (unique) documents shared by their users".
//
// Popular files exist on many peers. A naive sum of per-node library
// sizes counts every copy; the DHS counts each document once no matter
// how many peers share it, because identical documents hash to the same
// sketch bit. The example also exercises soft-state aging: when the
// publishers of a document go quiet, its bits expire and the count drifts
// down without any explicit deletion protocol.
//
// Randomness: the overlay derives every stream from master seed 3
// (NewNetwork), and the document workload uses its own PCG(3, 3) — the
// run is fully deterministic and its output never changes.
// main_test.go checks it against testdata/stdout.golden.
//
//	go run ./examples/filesharing
package main

import (
	"fmt"
	"io"
	"log"
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
	const (
		peers     = 512
		documents = 100000
		ttl       = 100 // soft-state lifetime in virtual ticks
	)
	net := dhsketch.NewNetwork(3, peers)
	d, err := dhsketch.New(net, dhsketch.Config{TTL: ttl, M: 64})
	if err != nil {
		return err
	}
	metric := dhsketch.MetricID("unique-shared-documents")

	// Build peer libraries with a popularity skew: document i is shared
	// by ~1 + documents/(i+1) peers (a Zipf-ish long tail), so total copies
	// far exceed distinct documents.
	rng := rand.New(rand.NewPCG(3, 3))
	nodes := net.Nodes()
	totalCopies := 0
	fmt.Fprintf(w, "publishing %d distinct documents from %d peers...\n", documents, peers)
	for i := 0; i < documents; i++ {
		id := dhsketch.ItemID(fmt.Sprintf("file-%d", i))
		copies := 1 + int(float64(documents)/(float64(i)+1))
		if copies > peers {
			copies = peers
		}
		for c := 0; c < copies; c++ {
			src := nodes[rng.IntN(len(nodes))]
			if _, err := d.InsertFrom(src, metric, id); err != nil {
				return err
			}
			totalCopies++
		}
	}
	fmt.Fprintf(w, "  %d copies of %d distinct documents (%.1f× duplication)\n",
		totalCopies, documents, float64(totalCopies)/documents)

	est, err := d.Count(metric)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nDHS estimate: %.0f unique documents (actual %d, error %+.1f%%)\n",
		est.Value, documents, 100*(est.Value-documents)/documents)
	fmt.Fprintf(w, "a duplicate-sensitive count would have reported ~%d\n\n", totalCopies)

	// Half the documents stop being refreshed; their soft state ages out.
	net.AdvanceClock(ttl / 2)
	fmt.Fprintf(w, "refreshing only documents 0..%d, then letting the rest expire...\n", documents/2-1)
	for i := 0; i < documents/2; i++ {
		id := dhsketch.ItemID(fmt.Sprintf("file-%d", i))
		src := nodes[rng.IntN(len(nodes))]
		if _, err := d.InsertFrom(src, metric, id); err != nil {
			return err
		}
	}
	net.AdvanceClock(ttl/2 + 1) // past the unrefreshed documents' TTL

	est2, err := d.Count(metric)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after expiry: %.0f unique documents (actual %d, error %+.1f%%)\n",
		est2.Value, documents/2, 100*(est2.Value-float64(documents/2))/float64(documents/2))
	fmt.Fprintln(w, "no deletion messages were sent — expiry is implicit (§3.3)")
	return nil
}
