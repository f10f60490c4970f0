// Command bench is the repository's benchmark: it drives a multi-process
// dhsnode ring and a dhsd frontend through named workloads and reports
// the end-to-end and per-layer metrics that BENCHMARK.json declares.
// README.md in this directory is the manual.
//
//	bash bench/run.sh -workload read_miss -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload all -seed 1 >a.jsonl
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: read_miss, read_hot, write_refresh, mixed_open, sim_scan, or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input: item labels, popularity draws, arrival schedule, probe targets")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: also run the in-process ladder and report the per-layer metrics in the summary line")
	quick := fs.Bool("quick", false, "3-node ring, small preload, short warm-up: for tests, not for numbers")
	root := fs.String("root", ".", "checkout root (holds go.mod, cmd/ and BENCHMARK.json)")
	cmp := fs.Bool("compare", false, "compare two files of benchmark output: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		s, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		regressed, err := compare(stdout, s, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	e := env{
		root:   *root,
		binDir: filepath.Join(*root, ".bench_build", "bin"),
		outDir: filepath.Join(*root, "bench", "out"),
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sz := fullSizing
	if *quick {
		sz = quickSizing
	}

	// Children die with the benchmark, also when it is interrupted.
	p := &procs{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sig:
			p.stopAll()
			os.Exit(130)
		case <-finished:
		}
	}()

	status := 0
	for _, w := range todo {
		fmt.Fprintf(stderr, "== %s seed=%d window=%ds trace=%d\n", w.name, *seed, *seconds, *trace)
		res, err := runOne(e, p, w, sz, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := report(stdout, stderr, w.name, *seed, *trace == 1, res); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, problem := range res.problems {
			fmt.Fprintf(stderr, "bench: %s: NOT CORRECT: %s\n", w.name, problem)
			status = 1
		}
	}
	return status
}

// runOne runs a workload's window and, when traced, the ladder after it.
func runOne(e env, p *procs, w workload, sz sizing, seed uint64, window time.Duration, traced bool, stderr io.Writer) (*runResult, error) {
	var res *runResult
	var err error
	if len(w.lanes) == 0 {
		res, err = runSim(sz, seed, window)
	} else {
		res, err = runNet(e, p, w, sz, seed, window)
	}
	if err != nil || !traced {
		return res, err
	}
	rungs, err := runLadder(seed, e.outDir)
	if err != nil {
		return nil, err
	}
	res.perLayer.merge(rungs)
	if w.name == "read_miss" {
		fmt.Fprint(stderr, budget(res.perLayer))
	}
	return res, nil
}

// report writes the run's records and summary line to stdout and a
// table for people to stderr. Untraced, the summary holds the end-to-end
// metrics and the records add the scraped per-layer ones; traced, the
// summary holds every per-layer metric.
func report(stdout, stderr io.Writer, workload string, seed uint64, traced bool, res *runResult) error {
	e2e, err := resolve(endToEndDefs, res.endToEnd, workload, seed)
	if err != nil {
		return err
	}
	layer, err := resolve(perLayerDefs, res.perLayer, workload, seed)
	if err != nil {
		return err
	}
	if !traced {
		// Only what this run measured: the ladder did not run.
		measured := layer[:0:0]
		for _, m := range layer {
			if _, ok := res.perLayer[m.Name]; ok {
				measured = append(measured, m)
			}
		}
		layer = measured
	}
	tw := tabwriter.NewWriter(stderr, 0, 0, 2, ' ', 0)
	for _, m := range append(append([]record{}, e2e...), layer...) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\tn=%d\n", workload, m.Name, m.Value, m.Unit, m.N)
	}
	tw.Flush()
	if traced {
		return emit(stdout, e2e, layer, res)
	}
	return emit(stdout, layer, e2e, res)
}
