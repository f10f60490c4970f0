package netdht

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"dhsketch/internal/core"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// fakePeer accepts connections and answers every frame with what handle
// returns for it — a stand-in ring member under the test's control.
// handle also receives the peer's own address, so it can name itself as
// a key's owner. Like a server, the peer keeps each connection's memory,
// and hands handle a routed store and a probe in their stateless forms
// whichever form they came in; its answers are handle's bytes, so it never
// sends a kept ack or reply.
func fakePeer(t *testing.T, handle func(self string, req []byte) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	self := ln.Addr().String()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var req, tuple []byte
				var mem wire.Memory
				for {
					var err error
					if req, err = readFrame(c, req); err != nil {
						return
					}
					asked := req
					switch {
					case len(req) < 2 || req[1] == tagFindSucc:
					case req[1] == wire.TagProbeReq || req[1] == wire.TagProbeReqKept:
						if q, err := wire.DecodeProbeReqOn(nil, req, &mem); err == nil {
							asked, _ = wire.EncodeProbeReq(q)
						}
					default:
						var m findSuccMsg
						if m, tuple, err = decodeFindSuccOn(req, &mem, tuple); err == nil && m.store != nil {
							asked = encodeFindSucc(m)
						}
					}
					if err := writeFrame(c, framed(handle(self, asked))); err != nil {
						return
					}
				}
			}()
		}
	}()
	return self
}

// slowEchoServer answers every frame with a pong after holding it for
// delay — a peer that makes RPC serialization visible as wall-clock
// time.
func slowEchoServer(t *testing.T, delay time.Duration) string {
	return fakePeer(t, func(string, []byte) []byte {
		time.Sleep(delay)
		return encodePong()
	})
}

// TestPeerPoolParallelExchanges pins the PR-10 throughput fix: with a
// pool width of 2, two concurrent exchanges toward the same peer ride
// disjoint sockets and overlap in time, while a width-1 pool (the old
// hard cap) serializes them.
func TestPeerPoolParallelExchanges(t *testing.T) {
	const delay = 150 * time.Millisecond
	addr := slowEchoServer(t, delay)

	elapsed := func(width int) time.Duration {
		p := newPeerPool(width, nil)
		defer p.close()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.ping(addr); err != nil {
					t.Errorf("exchange: %v", err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	if d := elapsed(2); d >= 2*delay {
		t.Errorf("width-2 pool took %v for two concurrent %v exchanges; want overlap (< %v)", d, delay, 2*delay)
	}
	if d := elapsed(1); d < 2*delay {
		t.Errorf("width-1 pool took %v; want serialized (>= %v)", d, 2*delay)
	}
}

// TestPeerPoolRespectsWidth: hammering one peer with many concurrent
// exchanges never opens more sockets than the configured width.
func TestPeerPoolRespectsWidth(t *testing.T) {
	addr := slowEchoServer(t, 20*time.Millisecond)
	p := newPeerPool(3, nil)
	defer p.close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.ping(addr); err != nil {
				t.Errorf("exchange: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := p.size(); n > 3 {
		t.Errorf("pool opened %d sockets toward one peer; width is 3", n)
	}
}

// TestConcurrentCountSharedClient runs many goroutines through one
// shared Client against a live cluster — the dhsd serving shape — each
// making many passes, over one metric or both of two of different sizes,
// and checks every pass lands inside the estimator's error envelope. Run
// under -race this pins the scan state, the pass states the passes take
// and give back, the RNG, and the pool for data races.
func TestConcurrentCountSharedClient(t *testing.T) {
	env := sim.NewEnv(7)
	cl := newTestCluster(t, env, 4)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0].Addr()

	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog,
		Lim: 5, Seed: 42,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	items := map[uint64]int{99: 400, 98: 3000}
	for metric, n := range items {
		for i := 0; i < n; i++ {
			if err := c.Insert(metric, uint64(i)*0x9e3779b97f4a7c15+metric); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	}

	// A goroutine's passes go round the lists, each a CountAll, and a
	// Count after a list of one.
	lists := [][]uint64{{99}, {98, 99}, {98}}
	type counted struct {
		metric uint64
		res    CountResult
	}
	const goroutines, passes = 8, 12
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([][]counted, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				list := lists[(g+pass)%len(lists)]
				res, err := c.CountAll(nil, list)
				if err == nil && len(list) == 1 {
					var one CountResult
					one, err = c.Count(list[0])
					list, res = append(list, list[0]), append(res, one)
				}
				if err != nil {
					errs[g] = err
					return
				}
				for i, metric := range list {
					results[g] = append(results[g], counted{metric, res[i]})
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for _, r := range results[g] {
			re := r.res.Estimate/float64(items[r.metric]) - 1
			if re < 0 {
				re = -re
			}
			// Sanity envelope only: each pass draws fresh random probe
			// targets, and an interval's tuples are scattered over several
			// owners (inserts pick random targets too), so a pass can miss
			// owners and land well off true — on top of m=64's estimator
			// variance at ~6 items/vector. The test pins race-freedom and
			// a sane order of magnitude, not accuracy (the simulator's
			// experiments pin accuracy deterministically).
			if re > 1.5 {
				t.Errorf("goroutine %d: metric %d estimate %.0f (true %d, rel err %.2f) outside envelope",
					g, r.metric, r.res.Estimate, items[r.metric], re)
			}
			if r.res.Degraded {
				t.Errorf("goroutine %d: degraded pass on a healthy ring: %+v", g, r.res)
			}
		}
	}
}

// TestConcurrentCountSurvivesCrash crashes a ring member while many
// goroutines count through one shared client: every pass must return
// (degraded at worst), never deadlock or race.
func TestConcurrentCountSurvivesCrash(t *testing.T) {
	env := sim.NewEnv(11)
	cl := newTestCluster(t, env, 4)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	entry := servers[0].Addr()

	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog,
		Lim: 3, Seed: 5,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		if err := c.Insert(7, uint64(i)*0x2545f4914f6cdd1d+3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				// The counting contract under faults: return, never abort.
				c.Count(7)
			}
		}()
	}
	// Crash a non-entry member mid-run.
	time.Sleep(10 * time.Millisecond)
	cl.Crash(servers[2])
	wg.Wait()
}

// TestCountResultJSONShape pins the machine-readable encoding that
// `dhsnode count -json`, dhsd, and dhsload all emit: the estimate and
// every field of core's Quality, under names that are only ever added to.
func TestCountResultJSONShape(t *testing.T) {
	b, err := json.Marshal(CountResult{Estimate: 12.5, Quality: core.Quality{
		ProbesAttempted: 9, ProbesFailed: 1, IntervalsSkipped: 2,
		VectorsUnresolved: 3, StaleRetries: 4, RepairWindow: true, Degraded: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"estimate":12.5,"probes_attempted":9,"probes_failed":1,"intervals_skipped":2,` +
		`"vectors_unresolved":3,"stale_retries":4,"repair_window":true,"degraded":true}`
	if string(b) != want {
		t.Errorf("CountResult JSON = %s, want %s", b, want)
	}
}
