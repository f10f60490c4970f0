// Command dhsd is the high-throughput query frontend for a DHS ring:
// one process that owns a netdht client and serves estimates over
// HTTP, absorbing read load the ring itself never sees. It answers on
// internal/respond's keep-alive loop, not net/http's server, so a cache
// hit allocates nothing from the socket's read to its write, and neither
// does a ring fan-out with -cache-ttl 0 -no-coalesce once the client is
// warm: the scan reuses the state of an earlier one, and the body is
// encoded into the connection's buffer (DESIGN.md §16). GET only, a
// request head within 8 KiB and 5 s of its first byte, 5 min for an
// idle connection's next request, 30 s to write a reply, and at most
// 1024 connections open (503 past them). Three
// layers stand between a request and a ring fan-out (internal/serve):
//
//   - a TTL cache of recent estimates (-cache-ttl),
//   - singleflight coalescing, so N concurrent queries for one metric
//     share a single Algorithm-1 scan (-coalesce),
//   - admission control that bounds concurrent fan-outs and sheds
//     excess queries with 429 instead of queueing without bound: at
//     most 64 fan-outs run at once, at most 256 queries wait for one,
//     and a query that has waited 100 ms is shed (internal/serve's
//     admission bounds).
//
// A minimal deployment next to a ring from scripts/smoke.sh:
//
//	dhsd -entry 127.0.0.1:4001 -listen 127.0.0.1:8080
//	curl 'http://127.0.0.1:8080/count?metric=demo'
//
// The response body is the canonical JSON CountResult — byte-identical
// to `dhsnode count -json` against the same ring when the cache is off
// — with serving provenance in X-Dhs-Source / X-Dhs-Age-Ms headers.
// The sketch-geometry flags (-k, -m, -kind) must agree with every
// writer of the metrics served.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/respond"
	"dhsketch/internal/serve"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	fs := flag.NewFlagSet("dhsd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP address to serve /count, /healthz, /statusz, /metrics on")
	entry := fs.String("entry", "", "address of any ring member (required)")

	// Sketch geometry — must match the ring's writers.
	var cfg netdht.ClientConfig
	cfg.GeometryFlags(fs)

	// Serving knobs.
	cacheTTL := fs.Duration("cache-ttl", time.Second, "estimate cache lifetime (0: cache disabled)")
	noCoalesce := fs.Bool("no-coalesce", false, "disable singleflight coalescing of concurrent same-metric queries")
	fs.Parse(os.Args[1:])

	if *entry == "" {
		log.Fatal("dhsd: -entry is required")
	}

	reg := metrics.New()
	reg.RegisterRuntime()
	cfg.Entry, cfg.Metrics = *entry, reg
	client, err := netdht.NewClient(cfg)
	if err != nil {
		log.Fatalf("dhsd: %v", err)
	}

	frontend := serve.New(client, serve.Config{
		CacheTTL: *cacheTTL,
		Coalesce: !*noCoalesce,
		Metrics:  reg,
	})
	srv := respond.NewServer(serve.Answer(frontend, serve.HandlerOptions{
		Metrics: reg,
		Ping:    client.Ping,
		View:    client.View,
	}))

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dhsd: listen %s: %v", *listen, err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Serve returns nil once Close closes ln, and an error only when
		// the listener fails for good.
		if err := srv.Serve(ln); err != nil {
			log.Printf("dhsd: serving on %s ended: %v", ln.Addr(), err)
		}
	}()
	log.Printf("serving estimates on %s (ring entry %s, cache-ttl %v, coalesce %v)",
		ln.Addr(), *entry, *cacheTTL, !*noCoalesce)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("received %v, shutting down", got)
	srv.Close()
	wg.Wait()
	client.Close()
}
