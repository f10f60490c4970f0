// Command dhsbench regenerates the paper's evaluation (§5): every table,
// figure, and quoted number has an experiment here (see DESIGN.md for the
// index). Each experiment prints a table in the paper's layout.
//
// Usage:
//
//	dhsbench [-experiment all|e1|...|e12|e12f|e13|e15] [-nodes 1024] [-scale 100]
//	         [-m 512] [-trials 20] [-buckets 100] [-seed 1] [-lim 5]
//	         [-workers N] [-trace file.jsonl] [-tracebuf N]
//	         [-cpuprofile file] [-memprofile file]
//
// E3 sweeps N over 1024, 2048, 4096 and 10240; -nodes N runs it at N
// alone.
//
// Sweep-style experiments (e3, e4, e8, e12f) fan their independent cells
// across -workers goroutines (default: one per CPU). Every cell builds
// its own deterministic world from -seed, so the printed tables are
// byte-for-byte identical at any worker count.
//
// Observability: -trace streams every simulation event (lookups, probes,
// walk steps, stores, expiries, injected faults) to a JSONL file; with
// -workers 1 the file is byte-identical across runs. -tracebuf N keeps
// the last N events in a ring buffer and dumps them to stderr when an
// experiment fails — a flight recorder for debugging. -cpuprofile and
// -memprofile write standard runtime/pprof profiles for `go tool pprof`.
//
// The default scale divides the paper's 10–80 M-tuple relations by 100,
// keeping a full run under a minute. For paper-faithful counting accuracy
// use -scale 10 (α = n/(m·N) ≥ 1 at m = 512, as in §5.1), which inserts
// 15 M tuples and takes a few minutes; -scale 1 reproduces the full
// 150 M-tuple workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dhsketch/internal/experiments"
	"dhsketch/internal/obs"
)

// renderer is every experiment's result: it prints its table.
type renderer interface{ Render(w io.Writer) }

// experiment is one table dhsbench prints: its -experiment name, its
// banner, and the call that runs it at the default sweep.
type experiment struct {
	name, what string
	run        func(p experiments.Params) (renderer, error)
}

var experimentList = []experiment{
	{"e1", "insertion and maintenance costs (§5.2)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE1(p) }},
	{"e2", "Table 2: counting costs",
		func(p experiments.Params) (renderer, error) { return experiments.RunE2(p, nil) }},
	{"e3", "scalability sweep (figure omitted in paper)",
		func(p experiments.Params) (renderer, error) {
			var sizes []int // the pinned sweep, unless -nodes names one size
			if p.Nodes != 0 {
				sizes = []int{p.Nodes}
			}
			return experiments.RunE3(p, sizes)
		}},
	{"e4", "accuracy vs number of bitmaps, incl. degradation",
		func(p experiments.Params) (renderer, error) { return experiments.RunE4(p, nil) }},
	{"e5", "Table 3: histogram building costs",
		func(p experiments.Params) (renderer, error) { return experiments.RunE5(p, nil) }},
	{"e6", "histogram per-cell accuracy",
		func(p experiments.Params) (renderer, error) { return experiments.RunE6(p, nil) }},
	{"e7", "query optimization with DHS histograms",
		func(p experiments.Params) (renderer, error) { return experiments.RunE7(p) }},
	{"e8", "estimator stddev vs theory (§2.2)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE8(p, nil) }},
	{"e9", "retry-bound validation (§4.1, eq. 5/6)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE9(p) }},
	{"e10", "fault tolerance: replication and bit-shift (§3.5)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE10(p, nil) }},
	{"e11", "baseline comparison (§1 constraints)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE11(p) }},
	{"e12", "soft-state maintenance under churn (§3.3 trade-off)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE12(p, nil) }},
	{"e12f", "fault injection: graceful degradation under loss and down-windows",
		func(p experiments.Params) (renderer, error) { return experiments.RunE12F(p, nil) }},
	{"e13", "load balance: per-node access and storage distributions (Table 3, constraint 3)",
		func(p experiments.Params) (renderer, error) { return experiments.RunE13(p) }},
	{"e15", "counting under stabilization churn: crash-stop faults, successor-list fallback, replica repair",
		func(p experiments.Params) (renderer, error) { return experiments.RunE15(p, nil) }},
}

// experimentNames lists what -experiment accepts, for the flag help and
// the unknown-experiment error.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ") + ", or a comma list"
}

func main() {
	var (
		exp     = flag.String("experiment", "all", "which experiment to run: "+experimentNames())
		nodes   = flag.Int("nodes", 0, "overlay size N (default 1024; e3 sweeps 1024 to 10240 unless it is set)")
		scale   = flag.Int("scale", 0, "relation scale divisor (default 100; 10 = paper-faithful alpha, 1 = full paper scale)")
		m       = flag.Int("m", 0, "default bitmap vectors (default 512)")
		trials  = flag.Int("trials", 0, "counting trials per configuration (default 20)")
		buckets = flag.Int("buckets", 0, "histogram buckets (default 100)")
		seed    = flag.Uint64("seed", 0, "master PRNG seed (default 1)")
		lim     = flag.Int("lim", 0, "probe retries per interval (default 5)")
		workers = flag.Int("workers", 0, "parallel experiment cells (default: one per CPU); results are identical at any value")

		traceFile  = flag.String("trace", "", "write a JSONL event trace to this file (deterministic with -workers 1)")
		traceBuf   = flag.Int("tracebuf", 0, "keep the last N events in memory; dumped to stderr if an experiment fails")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	p := experiments.Params{
		Seed:    *seed,
		Nodes:   *nodes,
		Scale:   *scale,
		M:       *m,
		Lim:     *lim,
		Buckets: *buckets,
		Trials:  *trials,
		Workers: *workers,
	}

	var sinks []obs.Tracer
	var jsonl *obs.JSONL
	var ring *obs.Ring
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		jsonl = obs.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	if *traceBuf > 0 {
		ring = obs.NewRing(*traceBuf)
		sinks = append(sinks, ring)
	}
	p.Tracer = obs.Multi(sinks...)

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToLower(*exp), ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	// finish flushes the trace file; fail additionally dumps the ring
	// buffer — the flight recorder's whole point is the moments before a
	// failure.
	finish := func() {
		if jsonl != nil {
			if err := jsonl.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			}
		}
	}
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		if ring != nil {
			events := ring.Events()
			fmt.Fprintf(os.Stderr, "last %d traced events:\n", len(events))
			dump := obs.NewJSONL(os.Stderr)
			for _, e := range events {
				dump.Event(e)
			}
			if err := dump.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "trace dump: %v\n", err)
			}
		}
		finish()
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}

	ran := 0
	for _, e := range experimentList {
		if !all && !want[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(e.name), e.what)
		//dhslint:allow determinism(operator-facing elapsed-time display; never enters a table)
		start := time.Now()
		r, err := e.run(p)
		if err != nil {
			fail(1, "%s failed: %v\n", e.name, err)
		}
		r.Render(os.Stdout)
		//dhslint:allow determinism(operator-facing elapsed-time display; never enters a table)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fail(2, "unknown experiment %q; use %s\n", *exp, experimentNames())
	}
	finish()

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // materialize final live-heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
