package main

// This is the only file of the benchmark that imports dhsketch/internal
// packages (rungs_test.go is its test). README.md lists every symbol
// used here: a refactor that keeps those keeps the benchmark building.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"dhsketch"
	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// ringClient is the generator's own ring client: the write path has no
// daemon in front of it, so the benchmark holds a netdht.Client the way
// `dhsnode insert` does. Its registry carries the same outbound series
// as dhsd's.
type ringClient struct {
	c   *netdht.Client
	reg *metrics.Registry
}

func newRingClient(entry string, seed uint64, ttl int64) (*ringClient, error) {
	reg := metrics.New()
	c, err := netdht.NewClient(netdht.ClientConfig{
		Entry: entry,
		K:     geomK, M: geomM, Kind: sketch.KindSuperLogLog, Lim: geomLim,
		TTL: ttl, Seed: seed, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	return &ringClient{c: c, reg: reg}, nil
}

func (r *ringClient) insert(metric, item uint64) error { return r.c.Insert(metric, item) }

func (r *ringClient) close() { r.c.Close() }

// scrape reads the client's registry through the same text format and
// parser as a daemon's /metrics.
func (r *ringClient) scrape() (samples, error) {
	var b bytes.Buffer
	if err := r.reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// sink keeps the compiler from discarding a timed call's result.
var sink float64

// nsPerCall times n calls of the function prepare returns, three times
// over with a fresh prepare each, and returns the median of the three
// means in nanoseconds.
func nsPerCall(n int, prepare func() func(i int)) float64 {
	var means []float64
	for rep := 0; rep < 3; rep++ {
		fn := prepare()
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		means = append(means, float64(time.Since(start))/float64(n))
	}
	return median(means)
}

// ladderOps is how many of each workload's first operations the ladder
// replays, each once traced and once bare.
const (
	ladderOps   = 500
	ladderItems = 500 // items per r-* metric loaded into the in-process ring
)

// runLadder times each layer's exported functions in-process and
// replays the start of every network workload through a traced
// serve+HTTP stack over an in-process netdht.Cluster. It is the same
// for every workload; spans go to outDir/trace-<workload>.jsonl.
func runLadder(seed uint64, outDir string) (readings, error) {
	out := readings{}
	rng := rand.New(rand.NewPCG(seed, 0x1add3e))
	microRungs(out, rng)
	if err := facadeRungs(out, seed, rng); err != nil {
		return nil, err
	}
	for _, n := range []int{8, 32} {
		if err := routeRungs(out, seed, rng, n); err != nil {
			return nil, err
		}
	}
	if err := replayRungs(out, seed, outDir); err != nil {
		return nil, err
	}
	return out, nil
}

// microRungs times the leaf packages: estimator, store, wire codecs.
func microRungs(out readings, rng *rand.Rand) {
	const calls = 50000
	ranks := make([]int, geomM)
	for i := range ranks {
		ranks[i] = rng.IntN(geomK - 5)
	}
	out.set("sketch.estimate_ns", nsPerCall(calls, func() func(int) {
		return func(int) { sink += sketch.EstimateSuperLogLog(ranks) }
	}), calls)

	// Every tuple 64 metrics can hold at this geometry: 64 vectors × 11
	// bit positions each.
	var keys []store.Key
	for m := 0; m < 64; m++ {
		for v := 0; v < geomM; v++ {
			for b := 0; b <= geomK-6; b++ {
				keys = append(keys, store.Key{Metric: uint64(m), Vector: int32(v), Bit: uint8(b)})
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	filled := func() *store.Store {
		st := store.New()
		for _, k := range keys {
			st.Set(k, writeTTL)
		}
		return st
	}
	out.set("store.set_new_ns", nsPerCall(len(keys), func() func(int) {
		st := store.New()
		return func(i int) { st.Set(keys[i], writeTTL) }
	}), len(keys))
	out.set("store.set_refresh_ns", nsPerCall(len(keys), func() func(int) {
		st := filled()
		return func(i int) { st.Set(keys[i], writeTTL+1) }
	}), len(keys))
	out.set("store.probe_reply_ns", nsPerCall(calls, func() func(int) {
		st := filled()
		var buf []uint64
		return func(i int) {
			k := keys[i%len(keys)]
			buf = st.AppendBitsWithBit(buf, k.Metric, k.Bit, 0)
			sink += float64(len(buf))
		}
	}), calls)

	mask := make([]byte, wire.MaskBytes(geomM))
	for v := 0; v < geomM; v += 3 {
		wire.SetVec(mask, v)
	}
	probeResp := func(i int) []byte {
		req, _ := wire.EncodeProbeReq(wire.ProbeReq{Bit: uint8(i % 11), NumVecs: geomM, Metrics: []uint64{uint64(i)}})
		q, _ := wire.DecodeProbeReq(req)
		resp, _ := wire.EncodeProbeResp(wire.ProbeResp{Bit: q.Bit, NumVecs: q.NumVecs, VecMasks: [][]byte{mask}})
		r, _ := wire.DecodeProbeResp(resp)
		sink += float64(len(r.VecMasks))
		return resp
	}
	out.set("wire.probe_codec_ns", nsPerCall(calls, func() func(int) {
		return func(i int) { probeResp(i) }
	}), calls)
	out.set("wire.probe_resp_bytes", float64(len(probeResp(0))), 1)
	out.set("wire.insert_codec_ns", nsPerCall(calls, func() func(int) {
		return func(i int) {
			m, _ := wire.DecodeInsert(wire.EncodeInsert(wire.Insert{Metric: uint64(i), Vector: uint16(i % geomM), Bit: uint8(i % 11), TTL: wire.ClampTTL(writeTTL)}))
			sink += float64(m.Vector)
		}
	}), calls)
}

// facadeRungs times the simulator at sim_scan's size and takes its
// exact per-operation counts, which repeat for a seed.
func facadeRungs(out readings, seed uint64, rng *rand.Rand) error {
	const inserts, counts, lookups = 100000, 500, 50000
	net := dhsketch.NewNetwork(seed, simNodes)
	d, err := dhsketch.New(net, dhsketch.Config{M: simM})
	if err != nil {
		return err
	}
	metric := dhsketch.MetricID("ladder")
	items := make([]uint64, inserts)
	for i := range items {
		items[i] = rng.Uint64()
	}
	var hops int64
	start := time.Now()
	for _, it := range items {
		c, err := d.Insert(metric, it)
		if err != nil {
			return fmt.Errorf("ladder: facade insert: %w", err)
		}
		hops += c.Hops
	}
	out.set("core.insert_ns", float64(time.Since(start))/inserts, inserts)
	out.set("core.hops_per_insert", float64(hops)/inserts, inserts)

	var cost dhsketch.CountCost
	start = time.Now()
	for i := 0; i < counts; i++ {
		est, err := d.Count(metric)
		if err != nil {
			return fmt.Errorf("ladder: facade count: %w", err)
		}
		cost.Hops += est.Cost.Hops
		cost.Bytes += est.Cost.Bytes
		cost.NodesVisited += est.Cost.NodesVisited
	}
	out.set("core.count_us", float64(time.Since(start))/counts/1e3, counts)
	out.set("core.hops_per_count", float64(cost.Hops)/counts, counts)
	out.set("core.bytes_per_count", float64(cost.Bytes)/counts, counts)
	out.set("core.nodes_visited_per_count", float64(cost.NodesVisited)/counts, counts)

	start = time.Now()
	for i := 0; i < lookups; i++ {
		if _, h, err := net.Ring.Lookup(items[i%len(items)]); err == nil {
			sink += float64(h)
		}
	}
	out.set("chord.lookup_ns", float64(time.Since(start))/lookups, lookups)
	return nil
}

// routeRungs times find_succ routing over loopback TCP between the n
// servers of an in-process cluster, which starts converged.
func routeRungs(out readings, seed uint64, rng *rand.Rand, n int) error {
	const routes = 1000
	cl, err := netdht.NewCluster(sim.NewEnv(seed), n, chord.ProtocolConfig{})
	if err != nil {
		return err
	}
	defer cl.Close()
	servers := cl.Servers()
	hops := 0
	start := time.Now()
	for i := 0; i < routes; i++ {
		rt, err := cl.RouteFrom(servers[i%n], rng.Uint64())
		if err != nil {
			return fmt.Errorf("ladder: route in a %d-node cluster: %w", n, err)
		}
		hops += rt.Hops
	}
	suffix := fmt.Sprintf(".n%d", n)
	out.set("netdht.route_us"+suffix, float64(time.Since(start))/routes/1e3, routes)
	out.set("netdht.route_hops"+suffix, float64(hops)/routes, routes)
	return nil
}

// tracingCounter is the serve.Counter seam with a span around it.
type tracingCounter struct {
	c      *netdht.Client
	tr     *tracer
	probes *[]int
}

func (t tracingCounter) Count(metric uint64) (netdht.CountResult, error) {
	end := t.tr.begin("netdht", "Client.Count")
	res, err := t.c.Count(metric)
	end()
	*t.probes = append(*t.probes, res.ProbesAttempted)
	return res, err
}

// httpStack is dhsd's serving path in-process: serve.Frontend behind
// serve.NewHandler on a loopback listener. With a tracer, the handler
// and the Counter seam are wrapped in spans.
type httpStack struct {
	hs     *http.Server
	base   string
	probes []int
}

func newHTTPStack(c *netdht.Client, w workload, tr *tracer) (*httpStack, error) {
	s := &httpStack{}
	var counter serve.Counter = c
	if tr != nil {
		counter = tracingCounter{c: c, tr: tr, probes: &s.probes}
	}
	h := serve.NewHandler(serve.New(counter, serve.Config{CacheTTL: w.cacheTTL, Coalesce: w.coalesce}), serve.HandlerOptions{})
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			end := tr.begin("serve", "Handler /count")
			inner.ServeHTTP(rw, r)
			end()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: h}
	s.base = "http://" + ln.Addr().String()
	go s.hs.Serve(ln) // returns when close shuts the server down
	return s, nil
}

func (s *httpStack) close() { s.hs.Close() }

// replayRungs replays the first ladderOps operations of each network
// workload, one at a time, against an 8-server in-process cluster, and
// derives the RPC, scan, serve and HTTP rungs from the spans.
func replayRungs(out readings, seed uint64, outDir string) error {
	cl, err := netdht.NewCluster(sim.NewEnv(seed), fullSizing.nodes, chord.ProtocolConfig{})
	if err != nil {
		return err
	}
	defer cl.Close()
	rc, err := newRingClient(cl.Servers()[0].Addr(), seed, writeTTL)
	if err != nil {
		return err
	}
	defer rc.close()

	const pings = 1000
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := rc.c.Ping(); err != nil {
			return fmt.Errorf("ladder: ping: %w", err)
		}
	}
	out.set("netdht.exchange_us", float64(time.Since(start))/pings/1e3, pings)

	famR := famRead
	famR.items = ladderItems
	pools := map[string]*pool{famRead.prefix: newPool(famR, seed), famWrite.prefix: newPool(famWrite, seed)}
	for j, m := range pools[famRead.prefix].metricIDs {
		for _, it := range pools[famRead.prefix].itemIDs[j] {
			if err := rc.insert(m, it); err != nil {
				return fmt.Errorf("ladder: preload: %w", err)
			}
		}
	}

	hc := &http.Client{Timeout: 10 * time.Second}
	var tracedNs, bareNs int64
	for _, w := range workloads {
		if len(w.lanes) == 0 {
			continue
		}
		tr := newTracer()
		traced, err := newHTTPStack(rc.c, w, tr)
		if err != nil {
			return err
		}
		bare, err := newHTTPStack(rc.c, w, nil)
		if err != nil {
			traced.close()
			return err
		}
		do := func(o op, s *httpStack, tr *tracer) error {
			p := pools[o.fam.prefix]
			item := o.item % len(p.itemIDs[o.metric])
			endOp := tr.begin("loadgen", "op")
			defer endOp()
			if o.kind == opInsert {
				end := tr.begin("netdht", "Client.Insert")
				defer end()
				return rc.insert(p.metricIDs[o.metric], p.itemIDs[o.metric][item])
			}
			end := tr.begin("dhsd", "GET /count")
			defer end()
			_, err := httpCount(hc, s.base, p.names[o.metric])
			return err
		}
		timed := func(o op, s *httpStack, tr *tracer, total *int64) error {
			t := time.Now()
			err := do(o, s, tr)
			*total += int64(time.Since(t))
			return err
		}
		for i, o := range firstOps(w, seed, ladderOps) {
			tr.nextQuery()
			// Alternate which twin runs first, so that neither always
			// finds the processor's caches warm.
			if i%2 == 0 {
				err = timed(o, bare, nil, &bareNs)
			}
			if err == nil {
				err = timed(o, traced, tr, &tracedNs)
			}
			if err == nil && i%2 != 0 {
				err = timed(o, bare, nil, &bareNs)
			}
			if err != nil {
				break
			}
		}
		traced.close()
		bare.close()
		if err != nil {
			return fmt.Errorf("ladder: replay of %s: %w", w.name, err)
		}
		if err := writeJSONL(filepath.Join(outDir, "trace-"+w.name+".jsonl"), tr.spans); err != nil {
			return err
		}
		spanRungs(out, w.name, tr.spans, traced.probes)
	}
	out.set("loadgen.trace_overhead_pct", 100*ratio(float64(tracedNs-bareNs), float64(bareNs)), 4*ladderOps)
	return nil
}

// spanRungs reads one workload's replay: read_miss gives the scan and
// the miss-path self times, read_hot the hit path, write_refresh the
// insert.
func spanRungs(out readings, workload string, spans []span, probes []int) {
	self := selfTimes(spans)
	missed := map[int]bool{} // queries that reached the Counter seam
	for _, s := range spans {
		if s.Name == "Client.Count" {
			missed[s.Query] = true
		}
	}
	var scan, handlerSelf, httpSelf, hitHandler, hitHTTP, insert []float64
	for _, s := range spans {
		switch {
		case s.Name == "Client.Count":
			scan = append(scan, float64(s.dur()))
		case s.Name == "Client.Insert":
			insert = append(insert, float64(s.dur()))
		case s.Name == "Handler /count" && missed[s.Query]:
			handlerSelf = append(handlerSelf, float64(self[s.ID]))
		case s.Name == "GET /count" && missed[s.Query]:
			httpSelf = append(httpSelf, float64(self[s.ID]))
		case s.Name == "Handler /count":
			hitHandler = append(hitHandler, float64(s.dur()))
		case s.Name == "GET /count":
			hitHTTP = append(hitHTTP, float64(s.dur()))
		}
	}
	switch workload {
	case "read_miss":
		p := make([]float64, len(probes))
		for i, n := range probes {
			p[i] = float64(n)
		}
		out.set("netdht.scan_ms", mean(scan)/1e6, len(scan))
		out.set("netdht.scan_probes", mean(p), len(p))
		out.set("serve.miss_self_us", mean(handlerSelf)/1e3, len(handlerSelf))
		out.set("dhsd.http_miss_self_us", mean(httpSelf)/1e3, len(httpSelf))
	case "read_hot":
		out.set("serve.hit_ns", mean(hitHandler), len(hitHandler))
		out.set("dhsd.http_hit_us", mean(hitHTTP)/1e3, len(hitHTTP))
	case "write_refresh":
		out.set("netdht.insert_us", mean(insert)/1e3, len(insert))
	}
}

// budget prints the latency budget of one uncached /count: the stages a
// read_miss query waits for, each from a named per-layer metric, and
// how their sum compares with the measured median.
func budget(layer readings) string {
	// An interval's geomLim attempts run ProbeParallel at a time: the
	// query waits for ⌈lim/parallel⌉ of them in a row, so for that share
	// of all the round trips it makes.
	par := netdht.DefaultProbeParallel
	serial := float64((geomLim+par-1)/par) / geomLim
	v := func(name string) float64 { return layer[name].value }
	rows := []struct {
		stage, from string
		ms          float64
	}{
		{"route lookups", "netdht.lookups_per_count × netdht.find_succ_rtt_us_mean × ⌈lim/ProbeParallel⌉/lim", v("netdht.lookups_per_count") * v("netdht.find_succ_rtt_us_mean") * serial / 1e3},
		{"probe owners", "netdht.probes_per_count × netdht.probe_rtt_us_mean × ⌈lim/ProbeParallel⌉/lim", v("netdht.probes_per_count") * v("netdht.probe_rtt_us_mean") * serial / 1e3},
		{"estimate", "sketch.estimate_ns", v("sketch.estimate_ns") / 1e6},
		{"serve engine + handler", "serve.miss_self_us", v("serve.miss_self_us") / 1e3},
		{"HTTP round trip", "dhsd.http_miss_self_us", v("dhsd.http_miss_self_us") / 1e3},
	}
	var b bytes.Buffer
	sum := 0.0
	fmt.Fprintf(&b, "latency budget of one uncached /count (read_miss)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %8.3f ms  %s\n", r.stage, r.ms, r.from)
		sum += r.ms
	}
	p50 := v("loadgen.op_p50_ms")
	fmt.Fprintf(&b, "  %-24s %8.3f ms  measured loadgen.op_p50_ms %.3f, predicted/measured %.2f\n", "sum", sum, p50, ratio(sum, p50))
	return b.String()
}
