// Query optimization example: the paper's §5.2 application. A P2P query
// processor (think PIER) must order a multi-way join; without statistics
// it ships whatever the query order dictates. With DHS histograms — about
// a megabyte to reconstruct — the optimizer picks the cheapest join tree
// locally, saving tens of megabytes of data transfer.
//
// Randomness: the overlay derives every stream from master seed 99
// (NewNetwork), and the synthetic relations use their own PCG(99, 1) —
// the run is fully deterministic and its output never changes.
// main_test.go checks it against testdata/stdout.golden.
//
//	go run ./examples/queryopt
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
	net := dhsketch.NewNetwork(99, 128)
	d, err := dhsketch.New(net, dhsketch.Config{M: 16})
	if err != nil {
		return err
	}

	// Three relations sharing a join attribute over [1, 10000], with
	// very different sizes and skews.
	type relSpec struct {
		name  string
		rows  int
		skew  float64 // 0 = uniform, higher = more mass at low values
		bytes float64
	}
	relations := []relSpec{
		{"users", 40000, 0.0, 256},
		{"orders", 120000, 1.2, 512},
		{"events", 240000, 2.0, 128},
	}

	rng := rand.New(rand.NewPCG(99, 1))
	nodes := net.Nodes()
	stats := make([]dhsketch.TableStats, len(relations))
	for i, rel := range relations {
		spec := dhsketch.HistogramSpec{
			Relation: rel.name, Attribute: "key", Min: 1, Max: 10000, Buckets: 20,
		}
		builder, err := dhsketch.NewHistogramBuilder(d, spec)
		if err != nil {
			return err
		}
		for row := 0; row < rel.rows; row++ {
			u := rng.Float64()
			for s := rel.skew; s > 0; s-- {
				u *= rng.Float64() // product of uniforms: skew toward 0
			}
			key := 1 + int(u*9999)
			src := nodes[rng.IntN(len(nodes))]
			if _, err := builder.Record(src, dhsketch.ItemID(fmt.Sprintf("%s/%d", rel.name, row)), key); err != nil {
				return err
			}
		}
		// Reconstruct this relation's statistics at the querying node.
		h, err := dhsketch.ReconstructHistogram(d, spec, nodes[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reconstructed %-8s histogram: est. %8.0f rows (actual %6d), cost %.1f kB\n",
			rel.name, h.Total(), rel.rows, float64(h.Cost.Bytes)/1024)
		stats[i] = dhsketch.TableStats{Name: rel.name, Hist: h, TupleBytes: rel.bytes}
	}

	// The query: users ⋈ orders ⋈ events, with a selective predicate on
	// events (key <= 200).
	query := []dhsketch.TableStats{stats[0], stats[1], stats[2].ApplyRange(1, 200)}

	optimal := dhsketch.OptimizeJoin(query)
	naive := dhsketch.LeftDeepJoin(query, []int{0, 1, 2}) // as written
	fmt.Fprintf(w, "\nquery: users ⋈ orders ⋈ σ[key≤200](events)\n")
	fmt.Fprintf(w, "  plan as written:  %s ships %.1f MB\n", naive, naive.Bytes/(1<<20))
	fmt.Fprintf(w, "  optimized plan:   %s ships %.1f MB\n", optimal, optimal.Bytes/(1<<20))
	fmt.Fprintf(w, "  saving: %.1f MB (%.0f%%), for ~%.1f kB of histogram traffic\n",
		(naive.Bytes-optimal.Bytes)/(1<<20),
		100*(naive.Bytes-optimal.Bytes)/naive.Bytes,
		float64(net.TrafficTotal().Bytes)/1024/1000) // rough: recon share
	fmt.Fprintf(w, "  estimated join output: %.0f rows\n", optimal.Rows())
	return nil
}
