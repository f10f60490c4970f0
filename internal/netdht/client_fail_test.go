package netdht

import (
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// Failure-path coverage for the RPC client: retry exhaustion, the
// Count accounting contract when peers are unreachable, one exchange per
// spent attempt against a peer that never answers, and Join's bootstrap
// retry window.

// deadAddr binds a loopback port and releases it, yielding an address
// that refuses connections (nothing re-listens during the test).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// silentPeer accepts connections and never answers: every exchange with
// it ends on the asking side's RPC timeout.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return ln.Addr().String()
}

// counter reads one unlabelled counter of reg.
func counter(reg *metrics.Registry, name string) uint64 { return reg.Counter(name, "").Value() }

// TestExchangeSilentPeerOneAttempt: a failure on a socket the exchange
// dialled itself is final. One exchange with a peer that never answers
// dials once, redials nothing and returns after one RPC timeout.
func TestExchangeSilentPeerOneAttempt(t *testing.T) {
	const rpc = 100 * time.Millisecond
	addr := silentPeer(t)
	reg := metrics.New()
	p := newPeerPool(time.Second, rpc, DefaultPeerConns, reg)
	defer p.close()

	start := time.Now()
	err := p.ping(addr)
	elapsed := time.Since(start)
	if !errors.Is(err, dht.ErrTimeout) {
		t.Fatalf("exchange error = %v, want dht.ErrTimeout", err)
	}
	if dials, redials := counter(reg, "netdht_dials_total"), counter(reg, "netdht_redials_total"); dials != 1 || redials != 0 {
		t.Errorf("%d dials and %d redials, want 1 and 0", dials, redials)
	}
	if elapsed >= 2*rpc {
		t.Errorf("exchange took %v, want one RPC timeout (%v)", elapsed, rpc)
	}
}

// TestCountSilentEntry: a Count whose entry accepts connections and never
// answers spends each of its attempts on one find_succ exchange: 11
// intervals × Lim 5 = 55 attempts, all failed, 55 dials, no redial and no
// backoff retry.
func TestCountSilentEntry(t *testing.T) {
	reg := metrics.New()
	c, err := NewClient(ClientConfig{
		Entry: silentPeer(t), K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5,
		Backoff: time.Millisecond, DialTimeout: 500 * time.Millisecond, RPCTimeout: 20 * time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)

	res, err := c.Count(42)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	const attempts = 55
	if res.ProbesAttempted != attempts || res.ProbesFailed != attempts || !res.Degraded {
		t.Errorf("Count quality %+v, want %d attempted, %d failed, degraded", res.Quality, attempts, attempts)
	}
	for name, want := range map[string]uint64{"netdht_dials_total": attempts, "netdht_redials_total": 0, "netdht_retries_total": 0} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// fastClient builds a client with one retry and a tiny backoff so
// exhausting the retry budget takes milliseconds, not seconds.
func fastClient(t *testing.T, entry string, k uint, m int) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Entry:       entry,
		K:           k,
		M:           m,
		Lim:         2,
		Retries:     1,
		Backoff:     time.Millisecond,
		DialTimeout: 500 * time.Millisecond,
		RPCTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestInsertRetryExhaustion: an Insert against an entry nobody listens
// on burns its full retry budget and surfaces dht.ErrNodeDown — the
// crash-stop signature mapNetErr assigns to a refused connection —
// through the client's error wrapping.
func TestInsertRetryExhaustion(t *testing.T) {
	c := fastClient(t, deadAddr(t), 8, 16)
	err := c.Insert(42, 12345)
	if err == nil {
		t.Fatal("Insert against a dead entry succeeded")
	}
	if !errors.Is(err, dht.ErrNodeDown) {
		t.Fatalf("Insert error = %v, want dht.ErrNodeDown in the chain", err)
	}
	if !strings.Contains(err.Error(), "insert lookup") {
		t.Fatalf("Insert error %q lost the operation context", err)
	}
}

// TestCountDeadEntryAccounting: with every probe of every interval
// failing, Count still returns (no hard error — the caller reads the
// damage from the accounting) and the books balance exactly: each of
// the maxBit+1 intervals spends its full Lim budget, every attempt
// fails, and every interval is skipped.
func TestCountDeadEntryAccounting(t *testing.T) {
	// K=8, M=16: maxBit = 8 - log2(16) = 4, so 5 intervals (PCSA scans
	// bits 0..maxBit inclusive).
	c := fastClient(t, deadAddr(t), 8, 16)
	res, err := c.Count(42)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	const intervals = 5
	wantAttempts := intervals * 2 // Lim=2
	if res.ProbesAttempted != wantAttempts {
		t.Errorf("ProbesAttempted = %d, want %d (intervals×Lim)", res.ProbesAttempted, wantAttempts)
	}
	if res.ProbesFailed != wantAttempts {
		t.Errorf("ProbesFailed = %d, want %d (every attempt)", res.ProbesFailed, wantAttempts)
	}
	if res.IntervalsSkipped != intervals {
		t.Errorf("IntervalsSkipped = %d, want %d (every interval)", res.IntervalsSkipped, intervals)
	}
}

// TestCountSurvivesPeerDeath: counting against a ring where most
// members crashed completes without a hard error, records probe
// failures, and still spends the per-interval budget. This is the
// networked analogue of the simulator's degraded-quality path.
func TestCountSurvivesPeerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	env := sim.NewEnv(7)
	c, err := NewCluster(env, 4, chord.ProtocolConfig{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	servers := c.Servers()
	entry := servers[0]
	for _, s := range servers[1:] {
		c.Crash(s)
	}

	cl, err := NewClient(ClientConfig{
		Entry:       entry.Addr(),
		K:           8,
		M:           16,
		Kind:        sketch.KindSuperLogLog,
		Lim:         2,
		Retries:     1,
		Backoff:     time.Millisecond,
		DialTimeout: 500 * time.Millisecond,
		RPCTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(cl.Close)

	res, err := cl.Count(42)
	if err != nil {
		t.Fatalf("Count over a mostly-dead ring: %v", err)
	}
	if res.ProbesFailed == 0 {
		t.Error("three of four owners are dead but no probe failed")
	}
	if res.ProbesAttempted < res.ProbesFailed {
		t.Errorf("accounting inverted: attempted %d < failed %d", res.ProbesAttempted, res.ProbesFailed)
	}
}

// TestJoinBackoffTiming: Join runs its whole attempt again after a
// linear backoff (joinRetries = 3 at the 50ms default: 50+100+150ms of
// sleeps). Against a dead bootstrap it must both fail with
// dht.ErrNodeDown and demonstrably have waited — a sub-250ms failure
// means the backoff never happened.
func TestJoinBackoffTiming(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)

	start := time.Now()
	err = s.Join(deadAddr(t))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Join via a dead bootstrap succeeded")
	}
	if !errors.Is(err, dht.ErrNodeDown) {
		t.Fatalf("Join error = %v, want dht.ErrNodeDown in the chain", err)
	}
	if elapsed < 250*time.Millisecond {
		t.Fatalf("Join failed after %v: retry backoff did not run", elapsed)
	}
}

// TestJoinLateBootstrap: a bootstrap that comes up inside Join's retry
// window (sleeps start at t≈0 and the last attempt lands around
// t≈300ms) is still joined — daemons started in parallel by an
// orchestrator do not need a strict ordering.
func TestJoinLateBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	addr := deadAddr(t)

	joiner, err := NewServer("127.0.0.1:0", Options{DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewServer joiner: %v", err)
	}
	t.Cleanup(joiner.Close)

	type bootResult struct {
		s   *Server
		err error
	}
	bootCh := make(chan bootResult, 1)
	go func() {
		time.Sleep(120 * time.Millisecond)
		boot, err := NewServer(addr, Options{DialTimeout: 500 * time.Millisecond})
		bootCh <- bootResult{boot, err}
	}()

	err = joiner.Join(addr)
	boot := <-bootCh
	if boot.err != nil {
		t.Skipf("could not re-bind %s for the late bootstrap: %v", addr, boot.err)
	}
	t.Cleanup(boot.s.Close)
	if err != nil {
		t.Fatalf("Join did not reach the late-starting bootstrap: %v", err)
	}
}

// TestTypedFailureEveryRPC: a peer that answers every request with
// errnoNodeDown reads as dht.ErrNodeDown on every RPC the package sends —
// probe, notify, neighbors, ping, a routed lookup and a routed store — not
// as a malformed or unexpected reply on some of them.
func TestTypedFailureEveryRPC(t *testing.T) {
	down := fakePeer(t, func(string, []byte) []byte { return encodeErr(errnoNodeDown, 0, 0) })
	c, _ := storeClient(t, down, 1)
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	peers, to := &tcpPeers{s: s}, chord.Ref{ID: 1, Addr: down}
	for name, rpc := range map[string]func() error{
		"probe": func() error {
			_, err := c.probe(down, wire.ProbeReq{Bit: 3, NumVecs: 64, Metrics: []uint64{7}})
			return err
		},
		"notify": func() error {
			_, err := peers.Notify(to, s.Protocol().Self())
			return err
		},
		"neighbors": func() error {
			_, err := peers.Neighbors(to)
			return err
		},
		"ping": c.Ping,
		"lookup": func() error {
			_, err := c.peers.route(down, findSuccMsg{flags: flagNeighbors, key: 42}, nil)
			return err
		},
		"relayed lookup": func() error {
			_, err := peers.FindSucc(to, 42, 1, 0, false)
			return err
		},
		"store": func() error {
			_, err := c.store(42, wire.EncodeInsert(wire.Insert{Metric: 7, Vector: 3, Bit: 2}))
			return err
		},
	} {
		if err := rpc(); !errors.Is(err, dht.ErrNodeDown) {
			t.Errorf("%s: err = %v, want dht.ErrNodeDown", name, err)
		}
	}
}

// TestRefusedReplyDropsSocket: a reply that frames correctly but that the
// asker refuses — a probe reply to another position than asked, a store ack
// cut inside its neighbourhood — fails its RPC and drops the socket it came
// on, whose memories may no longer agree, so the next exchange with the
// peer dials afresh, and succeeds. That is a dial, not a redial: nothing
// stale was found. A typed failure is a reply like any other and keeps its
// socket, except errnoBad: the peer could not read the request, and the
// socket goes as for a refused reply.
func TestRefusedReplyDropsSocket(t *testing.T) {
	req := wire.ProbeReq{Bit: 3, NumVecs: 64, Metrics: []uint64{7}}
	goodProbe, err := wire.EncodeProbeResp(wire.ProbeResp{Bit: 3, NumVecs: 64, VecMasks: [][]byte{make([]byte, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	badProbe := slices.Clone(goodProbe)
	badProbe[2] = 4 // the reply names another position
	owner := chord.Ref{ID: 9, Addr: "127.0.0.1:9"}
	goodAck := encodeStoreAck(chord.Found{Hops: 1})
	badAck := encodeStoreAck(chord.Found{Owner: owner, Hops: 1, Near: &chord.Neighbors{Succ: []chord.Ref{owner}}})
	badAck = badAck[:len(badAck)-3] // cut inside the neighbourhood's last ref
	tuple := wire.EncodeInsert(wire.Insert{Metric: 7, Vector: 3, Bit: 2})
	for _, tc := range []struct {
		name          string
		first, second []byte
		rpc           func(c *Client, addr string) error
		dials         uint64
	}{
		{"refused probe reply", badProbe, goodProbe, func(c *Client, addr string) error {
			_, err := c.probe(addr, req)
			return err
		}, 2},
		{"refused store ack", badAck, goodAck, func(c *Client, addr string) error {
			_, err := c.peers.route(addr, findSuccMsg{key: 42, store: tuple}, nil)
			return err
		}, 2},
		{"request the peer could not read", encodeErr(errnoBad, 0, 0), goodAck, func(c *Client, addr string) error {
			_, err := c.peers.route(addr, findSuccMsg{key: 42, store: tuple}, nil)
			return err
		}, 2},
		{"typed failure", encodeErr(errnoNoRoute, 0, 0), goodAck, func(c *Client, addr string) error {
			_, err := c.peers.route(addr, findSuccMsg{key: 42, store: tuple}, nil)
			return err
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var replies atomic.Int32
			addr := fakePeer(t, func(string, []byte) []byte {
				if replies.Add(1) == 1 {
					return tc.first
				}
				return tc.second
			})
			c, reg := storeClient(t, addr, 1)
			if err := tc.rpc(c, addr); err == nil {
				t.Fatal("the first reply was accepted")
			}
			if err := tc.rpc(c, addr); err != nil {
				t.Fatalf("the exchange after it: %v", err)
			}
			if dials, redials := counter(reg, "netdht_dials_total"), counter(reg, "netdht_redials_total"); dials != tc.dials || redials != 0 {
				t.Errorf("%d dials and %d redials for the two exchanges, want %d and 0", dials, redials, tc.dials)
			}
		})
	}
}

// flakyListener fails its first fails Accepts with EMFILE, as a process
// out of descriptors sees, then accepts from the listener it wraps.
type flakyListener struct {
	net.Listener
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestRingPortRetriesTemporaryAccept: accept errors from a descriptor limit
// do not end a node's accept loop. It waits them out and answers the
// exchange that follows.
func TestRingPortRetriesTemporaryAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serveOn(&flakyListener{Listener: ln, fails: 4}, Options{})
	defer s.Close()
	c, err := NewClient(ClientConfig{Entry: s.Addr(), DialTimeout: time.Second, RPCTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after 4 accept errors: %v", err)
	}
}

// TestRingPortCapsConns: past serverMaxConns open connections the ring port
// closes a new one unanswered, a client's pool reads that as a failed
// exchange, and the port serves again once a connection has ended.
func TestRingPortCapsConns(t *testing.T) {
	saved := serverMaxConns
	serverMaxConns = 1
	defer func() { serverMaxConns = saved }()
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := func() *Client {
		c, err := NewClient(ClientConfig{Entry: s.Addr(), DialTimeout: time.Second, RPCTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	held, over := client(), client()
	defer over.Close()
	if err := held.Ping(); err != nil {
		t.Fatalf("ping within the cap: %v", err)
	}
	if err := over.Ping(); err == nil {
		t.Fatal("a ping past the cap was answered")
	}
	held.Close()
	for len(s.port.Conns()) > 0 {
		time.Sleep(time.Millisecond)
	}
	if err := over.Ping(); err != nil {
		t.Errorf("ping after the held connection ended: %v", err)
	}
}
