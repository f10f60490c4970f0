// Command dhsnode is the multi-process deployment of the Distributed
// Hash Sketch: each `dhsnode serve` process hosts one netdht ring
// member over real TCP, and the `insert` / `count` subcommands are
// thin clients that drive the DHS data plane over RPC. Five terminal
// windows (or scripts/smoke.sh) make an actual counting network:
//
//	dhsnode serve -listen 127.0.0.1:4001
//	dhsnode serve -listen 127.0.0.1:4002 -join 127.0.0.1:4001
//	...
//	dhsnode insert -entry 127.0.0.1:4001 -metric demo -items 2000
//	dhsnode count  -entry 127.0.0.1:4001 -metric demo -expect 2000 -tol 0.35
//
// Unlike everything under cmd/dhsbench, nothing here is simulated or
// deterministic: protocol rounds run on a wall-clock ticker (-period;
// stabilize and fix-fingers every tick, check-predecessor every second
// tick), failures are discovered by real connection errors, and two runs
// interleave differently. insert and count share dhsd's sketch-geometry
// flags (-k, -m, -kind, -lim, -seed; netdht.ClientConfig.GeometryFlags),
// and -k, -m and -kind must agree across every writer and reader of a
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		runServe(os.Args[2:])
	case "insert":
		runInsert(os.Args[2:])
	case "count":
		runCount(os.Args[2:])
	case "status":
		runStatus(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dhsnode: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: dhsnode <subcommand> [flags]

subcommands:
  serve    host one ring member (join an existing ring via -join)
  insert   record items under a metric through any ring member
  count    estimate a metric's cardinality through any ring member
  status   query a member's admin endpoint (dhsnode status <admin-addr>)

run 'dhsnode <subcommand> -h' for the subcommand's flags
`)
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to listen on")
	join := fs.String("join", "", "address of an existing ring member to join (empty: start a new ring)")
	name := fs.String("name", "", "node name hashed into the ring identifier (default: the bound address)")
	period := fs.Duration("period", 50*time.Millisecond, "maintenance tick period: stabilize and fix-fingers run every tick, check-predecessor every second tick")
	admin := fs.String("admin", "", "admin listen address answering HTTP GETs of /metrics, /healthz, /statusz and /debug/pprof/ on kept-alive connections (empty: disabled)")
	quiet := fs.Bool("quiet", false, "suppress structured operational log lines (startup and fatal messages still print)")
	fs.Parse(args)

	logf := log.Printf
	if *quiet {
		logf = nil
	}
	var reg *metrics.Registry
	if *admin != "" {
		reg = metrics.New()
		reg.RegisterRuntime()
	}
	s, err := netdht.NewServer(*listen, netdht.Options{
		Name:     *name,
		Protocol: chord.ProtocolConfig{StabilizeEvery: 1, FixFingersEvery: 1, CheckPredEvery: 2},
		Logf:     logf,
		Metrics:  reg,
	})
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("serving on %s (id %016x)", s.Addr(), s.ID())
	if *admin != "" {
		adminAddr, err := s.StartAdmin(*admin, reg)
		if err != nil {
			s.Close()
			log.Fatalf("serve: %v", err)
		}
		log.Printf("admin on %s", adminAddr)
	}

	if *join != "" {
		// Join runs its attempt again after a backoff, so a bootstrap that
		// is still starting is waited for.
		if err := s.Join(*join); err != nil {
			s.Close()
			log.Fatalf("join %s: %v", *join, err)
		}
	}
	s.StartMaintenance(*period)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("received %v, shutting down", got)
	s.Close()
}

func runInsert(args []string) {
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	entry := fs.String("entry", "", "address of any ring member (required)")
	metric := fs.String("metric", "demo", "metric name")
	items := fs.Int("items", 1000, "number of distinct items to insert")
	prefix := fs.String("prefix", "item", "item label prefix (labels are <prefix>-<i>)")
	var cfg netdht.ClientConfig
	cfg.GeometryFlags(fs)
	fs.Int64Var(&cfg.TTL, "ttl", 0, "tuple lifetime in ring ticks (0: no expiry)")
	fs.Parse(args)

	// A private registry, only to report what the run cost: the peer pool
	// observes one outbound frame per exchange that reached a socket,
	// retries included, and counts the bytes of both directions as they
	// went on the socket.
	reg := metrics.New()
	cfg.Metrics = reg
	c := mustClient(*entry, cfg)
	defer c.Close()
	m := core.MetricID(*metric)
	start := time.Now()
	for i := 0; i < *items; i++ {
		if err := c.Insert(m, core.ItemID(fmt.Sprintf("%s-%d", *prefix, i))); err != nil {
			log.Fatalf("insert %d/%d: %v", i, *items, err)
		}
	}
	exchanges := reg.Histogram("netdht_out_frame_bytes", "", metrics.DefSizeBuckets, metrics.L("dir", "out")).Count()
	bytes := reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", "out")).Value() +
		reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", "in")).Value()
	byView := reg.Counter("netdht_store_first_hop_total", "", metrics.L("via", "view")).Value()
	log.Printf("inserted %d items under %q in %v exchanges=%d bytes=%d via=view:%d", *items, *metric, time.Since(start).Round(time.Millisecond), exchanges, bytes, byView)
}

func runCount(args []string) {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	entry := fs.String("entry", "", "address of any ring member (required)")
	metric := fs.String("metric", "demo", "metric name")
	expect := fs.Float64("expect", 0, "true cardinality to check against (0: report only)")
	tol := fs.Float64("tol", 0.35, "maximum relative error accepted with -expect")
	jsonOut := fs.Bool("json", false, "emit the CountResult as one JSON object on stdout (machine-readable)")
	var cfg netdht.ClientConfig
	cfg.GeometryFlags(fs)
	fs.Parse(args)

	c := mustClient(*entry, cfg)
	defer c.Close()
	start := time.Now()
	res, err := c.Count(core.MetricID(*metric))
	if err != nil {
		log.Fatalf("count: %v", err)
	}
	// re is the relative error against -expect, for either output mode.
	var re float64
	if *expect > 0 {
		re = math.Abs(res.Estimate / *expect - 1)
	}
	if *jsonOut {
		// The exact bytes dhsd serves for this metric: the canonical
		// CountResult encoding, nothing merged in.
		b, err := json.Marshal(res)
		if err != nil {
			log.Fatalf("count: encode: %v", err)
		}
		os.Stdout.Write(append(b, '\n'))
		if *expect > 0 && re > *tol {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("metric=%q estimate=%.0f probes=%d failed=%d skipped=%d unresolved=%d stale=%d repair=%v degraded=%v elapsed=%v\n",
		*metric, res.Estimate, res.ProbesAttempted, res.ProbesFailed, res.IntervalsSkipped,
		res.VectorsUnresolved, res.StaleRetries, res.RepairWindow, res.Degraded, time.Since(start).Round(time.Millisecond))
	if res.Degraded {
		fmt.Println("warning: scan lost evidence or met stale routing (failed probes, skipped intervals or re-routes); estimate may be low")
	}
	if *expect > 0 {
		fmt.Printf("expected=%.0f relative-error=%.3f tolerance=%.3f\n", *expect, re, *tol)
		if re > *tol {
			fmt.Println("FAIL: estimate outside tolerance")
			os.Exit(1)
		}
		fmt.Println("OK: estimate within tolerance")
	}
}

// runStatus queries one node's admin endpoint: /statusz for the ring
// snapshot, /healthz for the verdict. Exits nonzero when the node is
// unreachable or unhealthy, so scripts can assert ring health.
func runStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP request timeout")
	fs.Parse(args)
	addr := fs.Arg(0)
	if addr == "" {
		log.Fatal("usage: dhsnode status <admin-addr>")
	}

	var st netdht.Status
	_, body, err := netdht.AdminGet(addr, "/statusz", *timeout)
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatalf("status: decode /statusz: %v", err)
	}

	healthy := false
	health := "unreachable"
	if code, body, err := netdht.AdminGet(addr, "/healthz", *timeout); err == nil {
		healthy = code == 200
		health = strings.TrimSpace(string(body))
	}

	fmt.Printf("node id=%s name=%q addr=%s alive=%v linked=%v tick=%d\n",
		st.ID, st.Name, st.Addr, st.Alive, st.Linked, st.Tick)
	fmt.Printf("health ok=%v detail=%q\n", healthy, health)
	fmt.Printf("ring predecessor=%q successors=%d fingers=%d\n",
		st.Predecessor, len(st.Successors), st.Fingers)
	for i, succ := range st.Successors {
		fmt.Printf("successor[%d]=%s\n", i, succ)
	}
	fmt.Printf("store tuples=%d bytes=%d\n", st.StoreTuples, st.StoreBytes)
	fmt.Printf("load routed=%d probed=%d store_ops=%d\n", st.Routed, st.Probed, st.StoreOps)
	if !healthy {
		os.Exit(1)
	}
}

// mustClient connects a client to the ring at entry, built from the
// subcommand's flags.
func mustClient(entry string, cfg netdht.ClientConfig) *netdht.Client {
	if entry == "" {
		log.Fatal("-entry is required")
	}
	cfg.Entry = entry
	c, err := netdht.NewClient(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return c
}
