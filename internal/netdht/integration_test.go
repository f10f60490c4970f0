package netdht

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// relErr returns |est/truth - 1|.
func relErr(est float64, truth int) float64 {
	return math.Abs(est/float64(truth) - 1)
}

// TestCoreOverTCP: core.DHS — the full counting layer, unchanged —
// runs over a cluster of TCP servers: every routed lookup the insert
// and count paths issue crosses real sockets, and the estimate lands
// inside the estimator family's error envelope.
func TestCoreOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	env := sim.NewEnv(31337)
	c := newTestCluster(t, env, 12)
	d, err := core.New(core.Config{
		Overlay: c, Env: env,
		K: 18, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5,
	})
	if err != nil {
		t.Fatalf("core.New over cluster: %v", err)
	}
	const n = 4000
	metric := core.MetricID("net/core-over-tcp")
	for i := 0; i < n; i++ {
		if _, err := d.Insert(metric, core.ItemID(fmt.Sprintf("item-%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	est, err := d.Count(metric)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	// m=64 sLL has ~1.05/sqrt(64) ≈ 13% standard error; 3σ envelope.
	if re := relErr(est.Value, n); re > 0.40 {
		t.Fatalf("estimate %.0f for %d items: relative error %.2f > 0.40", est.Value, n, re)
	}
	if est.Quality.Degraded {
		t.Fatalf("healthy ring produced a degraded estimate: %+v", est.Quality)
	}
}

// startDaemonRing brings up n standalone servers the way cmd/dhsnode
// does: one bootstrap, the rest joining over RPC, all repairing their
// state with wall-clock maintenance tickers. It waits until the
// successor pointers close a cycle through all n members.
func startDaemonRing(t *testing.T, n int) []*Server {
	t.Helper()
	// Every tick runs stabilize + fix-fingers, every 2nd check-pred:
	// convergence in tens of milliseconds at a 5ms period.
	proto := chord.ProtocolConfig{StabilizeEvery: 1, FixFingersEvery: 1, CheckPredEvery: 2}
	opts := Options{Protocol: proto}
	servers := make([]*Server, 0, n)
	boot, err := NewServer("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("bootstrap server: %v", err)
	}
	servers = append(servers, boot)
	t.Cleanup(boot.Close)
	for i := 1; i < n; i++ {
		s, err := NewServer("127.0.0.1:0", opts)
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		servers = append(servers, s)
		t.Cleanup(s.Close)
		if err := s.Join(boot.Addr()); err != nil {
			t.Fatalf("server %d join: %v", i, err)
		}
	}
	for _, s := range servers {
		s.StartMaintenance(5 * time.Millisecond)
	}
	waitForRing(t, servers, 10*time.Second)
	return servers
}

// waitForRing polls until following successor heads from the first
// live server visits every live server exactly once and closes.
func waitForRing(t *testing.T, servers []*Server, timeout time.Duration) {
	t.Helper()
	live := make(map[uint64]*Server)
	var first *Server
	for _, s := range servers {
		if s.Alive() {
			live[s.ID()] = s
			if first == nil {
				first = s
			}
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		if ringClosed(first, live) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not close over %d live servers within %v", len(live), timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ringClosed(first *Server, live map[uint64]*Server) bool {
	cur, seen := first, map[uint64]bool{first.ID(): true}
	for i := 0; i < len(live); i++ {
		succ := cur.Protocol().Neighbors().Succ
		if len(succ) == 0 {
			return len(live) == 1
		}
		next, ok := live[succ[0].ID]
		if !ok {
			return false
		}
		if next == first {
			return len(seen) == len(live)
		}
		if seen[next.ID()] {
			return false
		}
		seen[next.ID()] = true
		cur = next
	}
	return false
}

// TestDaemonRingInsertCount: the multi-process deployment shape, in
// miniature — standalone servers formed by Join + wall-clock
// maintenance, a Client speaking pure RPC — records items and answers
// the count within the estimator envelope. This is the same path
// cmd/dhsnode and the CI smoke test exercise across OS processes.
func TestDaemonRingInsertCount(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	servers := startDaemonRing(t, 5)
	client, err := NewClient(ClientConfig{
		Entry: servers[0].Addr(),
		K:     16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: 7,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	const n = 3000
	metric := core.MetricID("net/daemon-ring")
	for i := 0; i < n; i++ {
		if err := client.Insert(metric, core.ItemID(fmt.Sprintf("net-item-%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	res, err := client.Count(metric)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if re := relErr(res.Estimate, n); re > 0.40 {
		t.Fatalf("estimate %.0f for %d items: relative error %.2f > 0.40 (quality %+v)",
			res.Estimate, n, re, res)
	}

	// Crash one non-entry server; wall-clock stabilization repairs the
	// ring and counting still answers (possibly far off — the client
	// path does not replicate, so the dead node's tuples are simply
	// gone). Then refresh: re-inserting the same items is the paper's
	// soft-state recovery — identical item IDs keep the cardinality at
	// n while fresh random targets land the tuples on live owners — and
	// the estimate must return to the healthy envelope.
	servers[3].Close()
	waitForRing(t, servers, 10*time.Second)
	if _, err := client.Count(metric); err != nil {
		t.Fatalf("post-crash count: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := client.Insert(metric, core.ItemID(fmt.Sprintf("net-item-%d", i))); err != nil {
			t.Fatalf("refresh insert %d: %v", i, err)
		}
	}
	res, err = client.Count(metric)
	if err != nil {
		t.Fatalf("post-refresh count: %v", err)
	}
	if re := relErr(res.Estimate, n); re > 0.40 {
		t.Fatalf("post-refresh estimate %.0f for %d items: relative error %.2f > 0.40", res.Estimate, n, re)
	}
}

// TestConcurrentCountsDuringStabilization drives concurrent counting
// passes over TCP while a crash and the repair rounds run — the -race
// checker's view of the wall-clock/data-plane interleaving.
func TestConcurrentCountsDuringStabilization(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	env := sim.NewEnv(9001)
	c := newTestCluster(t, env, 10)
	d, err := core.New(core.Config{
		Overlay: c, Env: env,
		K: 16, M: 32, Kind: sketch.KindSuperLogLog, Lim: 4,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	const n = 1500
	metric := core.MetricID("net/concurrent")
	for i := 0; i < n; i++ {
		if _, err := d.Insert(metric, core.ItemID(fmt.Sprintf("conc-%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// Crash, then advance the virtual clock past the settle window
	// BEFORE spawning the counters: sim.Clock is single-writer by
	// design, so the clock moves once and the single Step call below
	// replays every due protocol round — its real repair RPCs
	// interleaving with the concurrent counting passes, which is the
	// schedule the race detector is here to check.
	victim := c.Nodes()[2]
	c.Crash(victim)
	env.Clock.Advance(8 * 400)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Counting during the repair window may degrade but must
				// never error out or race.
				if _, err := d.Count(metric); err != nil {
					t.Errorf("concurrent count: %v", err)
					return
				}
			}
		}()
	}
	c.Step()
	wg.Wait()
	if !c.Converged() {
		t.Fatal("cluster did not reconverge under concurrent counting load")
	}
}
