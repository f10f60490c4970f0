package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"
)

// sizing is what differs between the benchmark proper and the quick
// pass the tests run.
type sizing struct {
	nodes  int
	settle time.Duration
	warmup time.Duration
	famR   family // famRead, possibly shrunk
}

// settle is the last part of every workload's set-up: the loaded system
// is left alone for this long — the ring must stay converged and
// healthy throughout — so that what set-up started in the background
// (first maintenance rounds, connection pools, the heap's scavenging
// after the load) is over before the window. It is also what keeps
// setup_s comparable between a quiet and a disturbed hour on the
// reference sandbox, where the rest of set-up takes 30–50% longer in
// the second (README, "Bounds and repeatability").
const settle = 3 * time.Second

var (
	fullSizing  = sizing{nodes: 8, settle: settle, warmup: 2 * time.Second, famR: famRead}
	quickSizing = sizing{nodes: 3, settle: 300 * time.Millisecond, warmup: 300 * time.Millisecond, famR: family{prefix: "r", metrics: 16, items: 200}}
)

// Thresholds past which a run's outputs are not correct.
const (
	maxFailRatio = 0.01
	maxRelErr    = 0.35 // scripts/smoke.sh's tolerance for m=64 super-LogLog
)

// writeTTL is the lifetime, in 50 ms maintenance ticks, that the write
// lanes store tuples with: one minute of soft state (§3.3), longer than
// a run, so nothing expires under the readers.
const writeTTL = 1200

// env locates the checkout and the benchmark's scratch directories.
type env struct {
	root   string // checkout root: go.mod, cmd/, BENCHMARK.json
	binDir string // built daemons
	outDir string // logs and trace files
}

// runNet runs one network workload: build, start a fresh ring, load it,
// start dhsd, warm up, measure the window, check the outputs, stop
// everything.
func runNet(e env, p *procs, w workload, sz sizing, seed uint64, window time.Duration) (*runResult, error) {
	t0 := time.Now()
	if err := buildDaemons(e.root, e.binDir); err != nil {
		return nil, err
	}
	defer p.stopAll()
	r, err := startRing(p, e.binDir, filepath.Join(e.outDir, w.name), sz.nodes)
	if err != nil {
		return nil, err
	}
	if err := r.awaitConverged(); err != nil {
		return nil, err
	}
	pools := map[string]*pool{
		famRead.prefix:  newPool(sz.famR, seed),
		famWrite.prefix: newPool(famWrite, seed),
	}
	if err := preload(r.entry(), seed, pools[famRead.prefix]); err != nil {
		return nil, err
	}
	if err := r.startDhsd(seed, w.dhsdArgs()); err != nil {
		return nil, err
	}
	writer, err := newRingClient(r.entry(), seed, writeTTL)
	if err != nil {
		return nil, err
	}
	defer writer.close()
	if err := r.holdSteady(sz.settle); err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	ls := make([]*lane, len(w.lanes))
	for i, spec := range w.lanes {
		if spec.fam.prefix == famRead.prefix {
			spec.fam = sz.famR
		}
		ls[i] = newLane(seed, i, spec, pools, r.dhsdAt, writer)
	}
	start := time.Now()
	measureFrom := start.Add(sz.warmup)
	end := measureFrom.Add(window)
	var firstErr errOnce
	var wg sync.WaitGroup
	for _, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(start, measureFrom, end, &firstErr)
		}()
	}
	// The scrapes bracket the window from outside the lanes; the load
	// keeps running while they are taken.
	time.Sleep(time.Until(measureFrom))
	sutCPU := []time.Duration{r.cpuTime()} // at every slice boundary
	before, writerBefore, errB := snapshotBoth(r, writer)
	for at := measureFrom.Add(sliceLen); !at.After(end); at = at.Add(sliceLen) {
		time.Sleep(time.Until(at))
		sutCPU = append(sutCPU, r.cpuTime())
	}
	after, writerAfter, errA := snapshotBoth(r, writer)
	wg.Wait()
	if errB != nil {
		return nil, fmt.Errorf("scrape before the window: %w", errB)
	}
	if errA != nil {
		return nil, fmt.Errorf("scrape after the window: %w", errA)
	}
	if err := r.checkHealthy(); err != nil {
		return nil, err
	}

	win := mergeLanes(ls)
	// A write-only workload has produced no estimate yet: count each
	// metric it wrote once, against what the lanes had acknowledged.
	if len(win.relErr) == 0 {
		for j, name := range pools[famWrite.prefix].names {
			win.attempted++
			est, err := httpCount(scrapeClient, "http://"+r.dhsdAt, name)
			if err != nil || win.truthW[j] == 0 {
				win.failed++
				firstErr.set(fmt.Errorf("final count of %s (truth %d): %v", name, win.truthW[j], err))
				continue
			}
			win.relErr.observe(name, est, float64(win.truthW[j]))
		}
	}

	res := &runResult{endToEnd: readings{}, perLayer: readings{}, attempted: win.attempted, failed: win.failed}
	done := len(win.samples)
	if done == 0 {
		return nil, fmt.Errorf("%s completed no operation in %v (first error: %v)", w.name, window, firstErr.err)
	}
	relErr, answers := win.relErr.mean()
	if fr := ratio(float64(win.failed), float64(win.attempted)); fr > maxFailRatio {
		res.problems = append(res.problems, fmt.Sprintf("fail ratio %.4f > %v (first error: %v)", fr, maxFailRatio, firstErr.err))
	}
	if answers == 0 || relErr > maxRelErr {
		res.problems = append(res.problems, fmt.Sprintf("mean relative error %.3f over %d answers > %v", relErr, answers, maxRelErr))
	}

	rss := after.dhsdProc.rss
	for _, u := range after.nodeProc {
		rss += u.rss
	}
	// Both ring clients: dhsd's for the reads, the generator's for the
	// writes. Their outbound series carry the same names.
	clients := after.dhsdProm.sub(before.dhsdProm)
	clients.add(writerAfter.sub(writerBefore))
	e2e := res.endToEnd
	e2e.set("setup_s", setup.Seconds(), 1)
	e2e.set("msgs_per_op", clients.sumOf("netdht_out_rpc_total{")/float64(done), done)
	e2e.set("bytes_per_op", clients.sumOf("netdht_out_bytes_total{")/float64(done), done)
	e2e.set("rss_mb", rss, sz.nodes+1)
	e2e.set("est_accuracy", 1-relErr, answers)

	scraped(res.perLayer, before, after, clients, win, float64(done), window.Seconds())
	summarize(win.samples, sutCPU).report(res.perLayer)
	return res, nil
}

// cpuTime is the CPU time of every dhsnode plus dhsd so far. A daemon
// that has gone counts as none; checkHealthy reports it after the
// window.
func (r *ring) cpuTime() time.Duration {
	pids := []int{r.dhsd.pid()}
	for _, nd := range r.nodes {
		pids = append(pids, nd.pid())
	}
	var sum time.Duration
	for _, pid := range pids {
		if u, err := readProc(pid); err == nil {
			sum += u.cpu
		}
	}
	return sum
}

// snapshotBoth scrapes the daemons and the generator's own ring client.
func snapshotBoth(r *ring, writer *ringClient) (*snapshot, samples, error) {
	s, err := r.snapshot()
	if err != nil {
		return nil, nil, err
	}
	w, err := writer.scrape()
	return s, w, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// preload inserts every item of the pool through one ring client, the
// lanes' worth of goroutines splitting the metrics between them.
func preload(entry string, seed uint64, p *pool) error {
	c, err := newRingClient(entry, seed, 0)
	if err != nil {
		return err
	}
	defer c.close()
	var firstErr errOnce
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := l; j < len(p.metricIDs); j += lanes {
				for _, item := range p.itemIDs[j] {
					if err := c.insert(p.metricIDs[j], item); err != nil {
						firstErr.set(fmt.Errorf("preload %s: %w", p.names[j], err))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr.err
}

// scraped derives the per-layer metrics that come from outside the
// daemons: /metrics and /statusz deltas, /proc CPU and memory, and the
// generator's own samples. clients is the window's delta of both ring
// clients, dhsd's and the generator's.
func scraped(out readings, before, after *snapshot, clients samples, win *windowResult, ops, secs float64) {
	dhsd := after.dhsdProm.sub(before.dhsdProm)
	nodes := samples{}
	for i := range after.nodeProm {
		nodes.add(after.nodeProm[i].sub(before.nodeProm[i]))
	}

	lookups := dhsd[`dhsd_cache_requests_total{result="hit"}`] + dhsd[`dhsd_cache_requests_total{result="miss"}`] +
		dhsd[`dhsd_cache_requests_total{result="stale"}`]
	requests := dhsd["dhsd_request_seconds_count"]
	fanouts := dhsd["dhsd_fanout_seconds_count"]
	out.set("serve.cache_hit_ratio", ratio(dhsd[`dhsd_cache_requests_total{result="hit"}`], lookups), int(lookups))
	out.set("serve.coalesced_ratio", ratio(dhsd["dhsd_coalesced_waiters_total"], requests), int(requests))
	out.set("serve.shed_ratio", ratio(dhsd[`dhsd_shed_total{reason="queue_full"}`]+dhsd[`dhsd_shed_total{reason="deadline"}`], requests), int(requests))
	out.set("serve.fanout_ms_mean", 1e3*dhsd.histMean("dhsd_fanout_seconds", ""), int(fanouts))
	out.set("serve.request_ms_mean", 1e3*dhsd.histMean("dhsd_request_seconds", ""), int(requests))

	// Per count: dhsd's own outbound series over its fan-outs, so that
	// the ring's maintenance traffic is not in them.
	out.set("netdht.lookups_per_count", ratio(dhsd[`netdht_out_rpc_total{tag="find_succ"}`], fanouts), int(fanouts))
	out.set("netdht.probes_per_count", ratio(dhsd[`netdht_out_rpc_total{tag="probe"}`], fanouts), int(fanouts))
	out.set("netdht.bytes_per_count", ratio(dhsd[`netdht_out_bytes_total{dir="in"}`]+dhsd[`netdht_out_bytes_total{dir="out"}`], fanouts), int(fanouts))
	for _, tag := range []string{"find_succ", "probe", "insert"} {
		sig := `tag="` + tag + `"`
		out.set("netdht."+tag+"_rtt_us_mean", 1e6*clients.histMean("netdht_out_rpc_seconds", sig), int(clients["netdht_out_rpc_seconds_count{"+sig+"}"]))
		out.set("dhsnode."+tag+"_us_mean", 1e6*nodes.histMean("netdht_rpc_seconds", sig), int(nodes["netdht_rpc_seconds_count{"+sig+"}"]))
	}
	out.set("netdht.retries_per_kop", 1e3*clients["netdht_retries_total"]/ops, int(ops))
	out.set("netdht.dials", clients["netdht_dials_total"], 1)

	var roundSum, roundCount float64
	for _, round := range []string{"stabilize", "fix_fingers", "check_pred"} {
		roundSum += nodes[`netdht_round_seconds_sum{round="`+round+`"}`]
		roundCount += nodes[`netdht_round_seconds_count{round="`+round+`"}`]
	}
	out.set("dhsnode.round_ms_mean", 1e3*ratio(roundSum, roundCount), int(roundCount))

	n := len(after.nodeStat)
	var loadMax, loadSum, tuples, bytes, rssMax float64
	var nodeCPU time.Duration
	for i, st := range after.nodeStat {
		b := before.nodeStat[i]
		load := float64(st.Routed - b.Routed + st.Probed - b.Probed + st.StoreOps - b.StoreOps)
		loadMax = math.Max(loadMax, load)
		loadSum += load
		tuples += float64(st.StoreTuples)
		bytes += float64(st.StoreBytes)
		rssMax = math.Max(rssMax, after.nodeProc[i].rss)
		nodeCPU += after.nodeProc[i].cpu - before.nodeProc[i].cpu
	}
	dhsdCPU := after.dhsdProc.cpu - before.dhsdProc.cpu
	selfCPU := after.selfProc.cpu - before.selfProc.cpu
	out.set("dhsnode.load_max_over_mean", ratio(loadMax, loadSum/float64(n)), n)
	out.set("dhsnode.cpu_ms_per_op", ms(nodeCPU)/ops, int(ops))
	out.set("dhsd.cpu_ms_per_op", ms(dhsdCPU)/ops, int(ops))
	out.set("dhsnode.rss_mb_max", rssMax, n)
	out.set("dhsd.rss_mb", after.dhsdProc.rss, 1)
	out.set("store.tuples_per_node_mean", tuples/float64(n), n)
	out.set("store.bytes_per_node_mean", bytes/float64(n), n)

	out.set("loadgen.cpu_share", ratio(float64(selfCPU), float64(selfCPU+nodeCPU+dhsdCPU)), 1)
	out.set("loadgen.cpu_available", after.machine.available(before.machine), 1)
	out.set("loadgen.gen_lag_p99_ms", tailPercentile(win.lag, 0.99), len(win.lag))
	for kind, name := range []string{opCount: "count", opInsert: "insert"} {
		lat := win.lat[kind]
		out.set("loadgen."+name+"_per_s", float64(len(lat))/secs, len(lat))
		out.set("loadgen."+name+"_p50_ms", percentile(lat, 0.5), len(lat))
		out.set("loadgen."+name+"_p99_ms", tailPercentile(lat, 0.99), len(lat))
	}
	relErr, answers := win.relErr.mean()
	out.set("loadgen.fail_ratio", ratio(float64(win.failed), float64(win.attempted)), win.attempted)
	out.set("loadgen.est_rel_err_mean", relErr, answers)
}
