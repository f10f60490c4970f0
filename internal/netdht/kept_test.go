package netdht

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// Tests of the socket memory's probe replies on a ring: it is born and dies
// with its socket, it never holds an arc back from a client that needs the
// new one, and what it saves costs no estimate.

// keptMasks is how many probe-reply masks a client has read as kept.
func keptMasks(reg *metrics.Registry) uint64 {
	return reg.Counter("netdht_probe_masks_total", "", metrics.L("form", "kept")).Value()
}

// severInbound closes every connection a server has accepted, as a server
// that reaped them would: their clients find the sockets stale.
func severInbound(s *Server) {
	for _, c := range s.port.Conns() {
		c.Close()
	}
}

// forgetReplies drops every socket of a client's pool, and the memory
// with each: its next probes go out on fresh ones.
func forgetReplies(c *Client) {
	c.peers.mu.Lock()
	defer c.peers.mu.Unlock()
	for _, e := range c.peers.peers {
		for _, pc := range e.slots {
			pc.mu.Lock()
			c.peers.dropConn(pc)
			pc.mu.Unlock()
		}
	}
}

// TestReplyMemoryDiesWithSocket: a memory lives as long as its socket. When
// every server drops the sockets a warm client holds, the client's next
// count redials, reads no mask as kept — every first reply on a socket is
// whole — and counts what its twin, whose sockets stayed, counts; the count
// after it reads kept masks again.
func TestReplyMemoryDiesWithSocket(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	clients, regs := twinClients(t, cl.Servers()[0].Addr(), sketch.KindSuperLogLog, 5)
	for round := 0; round < 4; round++ {
		if round == 2 {
			for _, s := range cl.Servers() {
				severInbound(s)
			}
		}
		kept, redials := keptMasks(regs[0]), counter(regs[0], "netdht_redials_total")
		res, _, _, _, _ := scanLog(clients[0], regs[0])
		twin, _, _, _, _ := scanLog(clients[1], regs[1])
		if res != twin || res.Degraded {
			t.Errorf("round %d: count %+v, its twin's %+v", round, res, twin)
		}
		kept, redials = keptMasks(regs[0])-kept, counter(regs[0], "netdht_redials_total")-redials
		switch {
		case round == 2 && (kept != 0 || redials == 0):
			t.Errorf("round %d, on fresh sockets: %d masks read as kept, %d redials; want none and some", round, kept, redials)
		case round != 2 && round > 0 && kept == 0:
			t.Errorf("round %d: no mask read as kept on a warm socket", round)
		}
	}
}

// TestReplyMemoryServerRestart: a node that restarts on the same address
// with the same store starts its connections' memories empty too. The
// client's stale socket is redialled, the first reply on the new one reads
// no mask as kept, and the estimate is the one before the restart.
func TestReplyMemoryServerRestart(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{Name: "solo"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr := s.Addr()
	loadRing(t, addr, sketch.KindSuperLogLog, 0, 600)
	c, reg := storeClient(t, addr, 3)
	c.Count(5)
	before, err := c.Count(5)
	if err != nil || keptMasks(reg) == 0 {
		t.Fatalf("warm count: %+v, %v, %d kept masks", before, err, keptMasks(reg))
	}
	st := s.App()
	s.Close()
	s, err = NewServer(addr, Options{Name: "solo"})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	t.Cleanup(s.Close)
	s.SetApp(st)
	kept := keptMasks(reg)
	after, err := c.Count(5)
	if err != nil || after != before {
		t.Errorf("after the restart: %+v, %v; before it %+v", after, err, before)
	}
	if n := keptMasks(reg) - kept; n != 0 || counter(reg, "netdht_redials_total") == 0 {
		t.Errorf("after the restart: %d masks read as kept, %d redials; want none and some", n, counter(reg, "netdht_redials_total"))
	}
}

// TestReplyMemoryJoinInFront: a node joins just in front of an owner a warm
// client remembers, between two of its counts, on the socket the client has
// to the owner. The owner's next reply carries the new arc whole, not as
// kept: the client's view moves the owner's arc to start at the joiner, and
// the count reports the repair and is not degraded, since no target fell in
// the joiner's sliver of an arc.
func TestReplyMemoryJoinInFront(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	clients, regs := twinClients(t, cl.Servers()[0].Addr(), sketch.KindSuperLogLog, 5)
	c, reg := clients[0], regs[0]
	scanLog(c, reg)
	_, log, _, _, _ := scanLog(c, reg)
	// The probed owner highest on the circle: its arc lies in the widest
	// intervals the scan probes, where a joiner's sliver of 2⁴⁴ identifiers
	// holds no target.
	var owner *Server
	for _, s := range cl.Servers() {
		for v := range log.wire {
			if v.owner == s.ID() && (owner == nil || s.ID() > owner.ID()) {
				owner = s
			}
		}
	}
	if owner == nil {
		t.Fatal("the warm count probed no owner")
	}
	pred := owner.Protocol().Neighbors().Pred
	var name string
	for i := 0; name == ""; i++ {
		if id := md4.Sum64([]byte(fmt.Sprint("sliver-", i))); id-pred.ID-1 < 1<<44 {
			name = fmt.Sprint("sliver-", i)
		}
	}
	joiner, err := cl.Join(name)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	settleCluster(t, cl, env)
	if got := owner.Protocol().Neighbors().Pred; got.ID != joiner.ID() {
		t.Fatalf("settled ring: the owner's predecessor is %v, want the joiner", got)
	}
	dials := counter(reg, "netdht_dials_total")
	res, _, _, _, _ := scanLog(c, reg)
	if !res.RepairWindow || res.Degraded || res.StaleRetries != 0 {
		t.Errorf("the count after the join: %+v; want a repair, not degraded", res)
	}
	if arc, _ := c.view.arc(owner.ID()); arc.lo != joiner.ID() {
		t.Errorf("the owner's arc starts at %016x, want the joiner %016x", arc.lo, joiner.ID())
	}
	if n := counter(reg, "netdht_dials_total") - dials; n != 0 {
		t.Errorf("the count dialled %d sockets; want the owner's old one", n)
	}
}

// TestReplyMemoryUnderInserts: counts interleaved with inserts of fresh
// items — masks that change between counts — are the counts of a twin whose
// every count goes out on fresh sockets, at no more bytes.
func TestReplyMemoryUnderInserts(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0].Addr()
	clients, regs := twinClients(t, entry, sketch.KindSuperLogLog, 5)
	var kept uint64
	for round := 0; round < 5; round++ {
		loadRing(t, entry, sketch.KindSuperLogLog, 600+round*400, 400)
		forgetReplies(clients[1])
		b0, b1, k := wireBytes(regs[0]), wireBytes(regs[1]), keptMasks(regs[0])
		res, _, _, _, _ := scanLog(clients[0], regs[0])
		fresh, _, _, _, _ := scanLog(clients[1], regs[1])
		if res != fresh || res.Degraded {
			t.Errorf("round %d: count %+v, on fresh sockets %+v", round, res, fresh)
		}
		if got, want := wireBytes(regs[0])-b0, wireBytes(regs[1])-b1; got > want {
			t.Errorf("round %d: %d bytes with the memory, %d without", round, got, want)
		}
		kept += keptMasks(regs[0]) - k
	}
	if kept == 0 {
		t.Error("no mask was read as kept")
	}
}

// Tests of the socket memory's stores, in the same terms: it dies with its
// socket, whichever end ends it, and what it leaves out never hides what a
// store's ack says of the route.

// storeFrames is how many routed-store frames a client has exchanged in one
// direction ("out": requests, "in": acks) and form ("full", "kept").
func storeFrames(reg *metrics.Registry, dir, form string) uint64 {
	return reg.Counter("netdht_store_frames_total", "", metrics.L("dir", dir), metrics.L("form", form)).Value()
}

// serverBytes is what a server has read ("in") or written ("out").
func serverBytes(reg *metrics.Registry, dir string) uint64 {
	return reg.Counter("netdht_server_bytes_total", "", metrics.L("dir", dir)).Value()
}

// outBytes is what a client's exchanges have written ("out") or read ("in").
func outBytes(reg *metrics.Registry, dir string) uint64 {
	return reg.Counter("netdht_out_bytes_total", "", metrics.L("dir", dir)).Value()
}

// soloServer starts an instrumented ring of one at listen.
func soloServer(t *testing.T, listen string) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	s, err := NewServer(listen, obsOptions(reg, nil))
	if err != nil {
		t.Fatalf("NewServer(%s): %v", listen, err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

// TestStoreMemoryJoinInFront: a node joins just in front of an owner a warm
// client remembers, on a socket whose memory holds the owner's unforwarded
// acks. A store for the joiner's sliver goes to the remembered owner, which
// routes it on: its ack counts the hops, and the client drops the owner's
// arc. A second such store on the same socket, after the stale arc is put
// back, takes the same route and gets an ack equal to the first — sent kept,
// two bytes — which still reads those hops and drops the arc again. Both
// tuples land on the joiner.
func TestStoreMemoryJoinInFront(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := storeClient(t, servers[0].Addr(), 5)
	for i := 0; len(c.View()) < len(servers); i++ {
		if err := c.Insert(1, uint64(i)); err != nil {
			t.Fatalf("warm-up insert: %v", err)
		}
	}
	owner := servers[3]
	was, ok := c.view.arc(owner.ID())
	if !ok {
		t.Fatal("the warm view holds no arc for the owner")
	}
	tuple := tupleOf(wire.EncodeInsert(wire.Insert{Metric: 1, Vector: 3, Bit: 2, TTL: 9}))
	for key := owner.ID() - 3; key <= owner.ID(); key++ { // the owner's own, acked with hops 0
		if ack, err := c.store(key, tuple); err != nil || ack.Hops != 0 {
			t.Fatalf("store on the owner's arc: %+v, %v", ack, err)
		}
	}
	var name string
	for i := 0; name == ""; i++ {
		if id := md4.Sum64([]byte(fmt.Sprint("sliver-", i))); id-was.lo-1 < 1<<44 {
			name = fmt.Sprint("sliver-", i)
		}
	}
	joiner, err := cl.Join(name)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	settleCluster(t, cl, env)
	if got := owner.Protocol().Neighbors().Pred; got.ID != joiner.ID() {
		t.Fatalf("settled ring: the owner's predecessor is %v, want the joiner", got)
	}
	var hops int
	for i, key := range []uint64{joiner.ID(), joiner.ID() - 1} {
		if i > 0 {
			c.view.set(was.lo, was.owner)
		}
		kept, in := storeFrames(reg, "in", "kept"), outBytes(reg, "in")
		ack, err := c.store(key, tuple)
		if err != nil || ack.Hops == 0 || i > 0 && ack.Hops != hops {
			t.Fatalf("store %d for the joiner's sliver: %+v, %v; want an ack with hops, the first's %d", i, ack, err, hops)
		}
		hops = ack.Hops
		if _, still := c.view.arc(owner.ID()); still {
			t.Errorf("store %d: the owner's arc survived an ack with hops %d", i, hops)
		}
		if n := storeFrames(reg, "in", "kept") - kept; n != uint64(i) {
			t.Errorf("store %d: %d acks read as kept, want %d", i, n, i)
		}
		if i == 1 && outBytes(reg, "in")-in != 2 {
			t.Errorf("store %d: the ack was %d bytes, want the kept 2", i, outBytes(reg, "in")-in)
		}
		if !tupleAt(joiner, wire.Insert{Metric: 1, Vector: 3, Bit: 2}) {
			t.Errorf("store %d: the joiner does not hold the tuple", i)
		}
	}
}

// TestStoreBytesMetered: the byte counters meter frames as they go on the
// socket, kept or not. Over warm inserts into a loopback Cluster whose
// servers are instrumented, what the servers read is what the client and the
// servers' own relays wrote, and what the client and the relays read is what
// the servers wrote; and most stores and acks went as kept.
func TestStoreBytesMetered(t *testing.T) {
	env := sim.NewEnv(9)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	srv, relay := make([]*metrics.Registry, len(servers)), make([]*metrics.Registry, len(servers))
	for i, s := range servers {
		srv[i], relay[i] = metrics.New(), metrics.New()
		s.m, s.peers.m = newSrvMetrics(srv[i]), newPoolMetrics(relay[i])
		// Conns takes the loop's lock, which every connection accepted
		// after takes first: their handlers see the meters.
		s.port.Conns()
	}
	c, reg := storeClient(t, servers[0].Addr(), 3)
	sums := func() (cliOut, cliIn, srvIn, srvOut uint64) {
		cliOut, cliIn = outBytes(reg, "out"), outBytes(reg, "in")
		for i := range servers {
			cliOut, cliIn = cliOut+outBytes(relay[i], "out"), cliIn+outBytes(relay[i], "in")
			srvIn, srvOut = srvIn+serverBytes(srv[i], "in"), srvOut+serverBytes(srv[i], "out")
		}
		return
	}
	for i := 0; i < 16*len(servers) || len(c.View()) < len(servers); i++ {
		if err := c.Insert(uint64(1+i%8), uint64(i)); err != nil {
			t.Fatalf("warm-up insert: %v", err)
		}
	}
	const inserts = 400
	o0, i0, si0, so0 := sums()
	b0, kept0, keptAck0 := wireBytes(reg), storeFrames(reg, "out", "kept"), storeFrames(reg, "in", "kept")
	for i := 0; i < inserts; i++ {
		if err := c.Insert(uint64(1+i%8), uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	o1, i1, si1, so1 := sums()
	if o1-o0 != si1-si0 || i1-i0 != so1-so0 {
		t.Errorf("written by askers %d, read by servers %d; written by servers %d, read by askers %d", o1-o0, si1-si0, so1-so0, i1-i0)
	}
	if kept := storeFrames(reg, "out", "kept") - kept0; kept < inserts*9/10 {
		t.Errorf("%d of %d warm stores went as kept", kept, inserts)
	}
	if kept := storeFrames(reg, "in", "kept") - keptAck0; kept < inserts*9/10 {
		t.Errorf("%d of %d warm acks came as kept", kept, inserts)
	}
	if perInsert := float64(wireBytes(reg)-b0) / inserts; perInsert > 20 {
		t.Errorf("a warm insert moved %.1f client bytes, want at most 20", perInsert)
	}
}

// Tests of the memory's lifetime rules, one each over both of its kinds
// on a ring of one: a memory dies with its socket, whichever end ends it, and
// a request the server cannot decode ends the connection.

// probeServer is an instrumented ring of one at listen that holds metric 7
// at a few positions, so that a probe's reply has masks to keep.
func probeServer(t *testing.T, listen string) (*Server, *metrics.Registry) {
	t.Helper()
	s, sreg := soloServer(t, listen)
	halfFill(s, 7, 64, 2, 4)
	return s, sreg
}

// trioProbe and trioInsert are the requests the lifetime tests below send.
var (
	trioProbe  = wire.ProbeReq{Bit: 2, Span: 6, NumVecs: 64, Metrics: []uint64{7}}
	trioInsert = wire.Insert{Metric: 7, Vector: 3, Bit: 2, TTL: 9}
)

// memoryHalf is one half of a socket's memory as the lifetime tests drive it:
// a server, one request of its kind, and what a client reads as kept.
type memoryHalf struct {
	name   string
	server func(t *testing.T, listen string) (*Server, *metrics.Registry)
	whole  uint64 // the length of the request's stateless frame
	// ask sends the request through c, and returns the answer.
	ask func(c *Client, s *Server) (any, error)
	// served counts the requests s has served.
	served func(s *Server) int64
	// keptIn, when not nil, counts the probe-reply masks a client has read
	// as kept. A store on a ring of one goes through the entry, flagged, and
	// its ack, which names the owner, is never kept.
	keptIn func(reg *metrics.Registry) uint64
	// wholeOut, when not nil, counts the requests a client has sent whole.
	wholeOut func(reg *metrics.Registry) uint64
	// spoil makes a client's memory disagree with its server's: it records
	// there a request the server never reads, so that the next request names
	// as changed a field the server remembers.
	spoil func(t *testing.T, mem *wire.Memory)
}

// probeHalf is the probe half: a probe of trioProbe to a ring of one that
// holds metric 7, so that its reply has masks to keep.
func probeHalf(t *testing.T) memoryHalf {
	probe, err := wire.EncodeProbeReq(trioProbe)
	if err != nil {
		t.Fatal(err)
	}
	return memoryHalf{
		name:   "probe",
		server: probeServer,
		whole:  uint64(len(probe)),
		ask:    func(c *Client, s *Server) (any, error) { return c.probe(s.Addr(), trioProbe, nil) },
		served: func(s *Server) int64 { return s.Counters().Snapshot().Probed },
		keptIn: keptMasks,
		spoil: func(t *testing.T, mem *wire.Memory) {
			other := trioProbe
			other.Bit = 9
			wire.AppendProbeReqOn(nil, other, mem)
		},
	}
}

// storeHalf is the store half: a routed store of trioInsert to a ring of one,
// which must then hold the tuple. It goes to the server in one exchange,
// unflagged, whatever the client's view holds: Client.store would take a
// refused store by the view to the entry again.
func storeHalf() memoryHalf {
	tuple := tupleOf(wire.EncodeInsert(trioInsert))
	return memoryHalf{
		name:   "store",
		server: soloServer,
		whole:  uint64(findSuccHeader + tuple.Size()),
		ask: func(c *Client, s *Server) (any, error) {
			ack, err := c.peers.route(s.Addr(), findSuccMsg{key: 1, tuple: tuple}, nil)
			if err == nil && !tupleAt(s, wire.Insert{Metric: 7, Vector: 3, Bit: 2}) {
				err = errors.New("the server does not hold the tuple")
			}
			return ack, err
		},
		served:   func(s *Server) int64 { return s.Counters().Snapshot().StoreOps },
		wholeOut: func(reg *metrics.Registry) uint64 { return storeFrames(reg, "out", "full") },
		spoil: func(t *testing.T, mem *wire.Memory) {
			other := trioInsert
			other.TTL++
			appendFindSucc(nil, findSuccMsg{key: 1, tuple: tupleOf(wire.EncodeInsert(other))}, mem)
		},
	}
}

func memoryHalves(t *testing.T) []memoryHalf {
	return []memoryHalf{probeHalf(t), storeHalf()}
}

// expect sends h's request through c, requires s to serve it once, and
// returns the answer. On a fresh socket (warm false) the request must go
// whole and the client read no mask as kept; on a warm one it must go kept,
// fewer bytes, and a probe's client read masks as kept.
func (h memoryHalf) expect(t *testing.T, c *Client, reg *metrics.Registry, s *Server, sreg *metrics.Registry, warm bool, what string) any {
	t.Helper()
	keptIn := func() uint64 {
		if h.keptIn == nil {
			return 0
		}
		return h.keptIn(reg)
	}
	in, ops, kept := serverBytes(sreg, "in"), h.served(s), keptIn()
	answer, err := h.ask(c, s)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if n := h.served(s) - ops; n != 1 {
		t.Fatalf("%s was served %d times, want once", what, n)
	}
	read, k := serverBytes(sreg, "in")-in, keptIn()-kept
	switch {
	case !warm && (read != h.whole || k != 0):
		t.Errorf("%s, on a fresh socket: the server read %d bytes and the client %d masks kept; want the whole %d and none", what, read, k, h.whole)
	case warm && (read >= h.whole || h.keptIn != nil && k == 0):
		t.Errorf("%s, on a warm socket: the server read %d bytes and the client %d masks kept; want fewer than %d and some", what, read, k, h.whole)
	}
	return answer
}

// staleSocket: a memory lives as long as its socket. When the server has
// dropped a socket whose memory holds a request and its answer, the client's
// next request fails on the stale socket and is sent again on one redial —
// whole, as the first request on any socket is, since the new socket's memory
// is empty — served once, answered as before, and with nothing in the answer
// read as kept. The request after it is kept again.
func staleSocket(t *testing.T, h memoryHalf) {
	s, sreg := h.server(t, "127.0.0.1:0")
	c, reg := storeClient(t, s.Addr(), 1)
	h.expect(t, c, reg, s, sreg, false, "the first request")
	want := h.expect(t, c, reg, s, sreg, true, "the second request")
	severInbound(s)
	redials := counter(reg, "netdht_redials_total")
	var whole uint64
	if h.wholeOut != nil {
		whole = h.wholeOut(reg)
	}
	if got := h.expect(t, c, reg, s, sreg, false, "the re-send on a fresh dial"); !reflect.DeepEqual(got, want) {
		t.Errorf("the re-send was answered %+v, the request before it %+v", got, want)
	}
	if n := counter(reg, "netdht_redials_total") - redials; n != 1 {
		t.Errorf("%d redials, want 1", n)
	}
	if h.wholeOut != nil && h.wholeOut(reg)-whole != 1 {
		t.Errorf("%d whole requests metered for the exchange, want the re-send", h.wholeOut(reg)-whole)
	}
	h.expect(t, c, reg, s, sreg, true, "the request after the re-send")
}

// TestProbeMemoryStaleSocket is staleSocket for the probe half.
func TestProbeMemoryStaleSocket(t *testing.T) { staleSocket(t, probeHalf(t)) }

// TestStoreMemoryStaleSocket is staleSocket for the store half.
func TestStoreMemoryStaleSocket(t *testing.T) { staleSocket(t, storeHalf()) }

// serverRestart: a node that restarts on the same address, holding what it
// held, starts its connections' memories empty. The client's first request
// after it goes out whole on a redialled socket, reads nothing as kept, and
// is answered as before the restart; the one after it is kept.
func serverRestart(t *testing.T, h memoryHalf) {
	s, sreg := h.server(t, "127.0.0.1:0")
	addr := s.Addr()
	c, reg := storeClient(t, addr, 1)
	h.expect(t, c, reg, s, sreg, false, "the first request")
	want := h.expect(t, c, reg, s, sreg, true, "the second request")
	s.Close()
	s, sreg = h.server(t, addr)
	if got := h.expect(t, c, reg, s, sreg, false, "the first request after the restart"); !reflect.DeepEqual(got, want) {
		t.Errorf("after the restart the request was answered %+v, before it %+v", got, want)
	}
	if counter(reg, "netdht_redials_total") == 0 {
		t.Error("the request after the restart did not redial")
	}
	h.expect(t, c, reg, s, sreg, true, "the second request after the restart")
}

// TestProbeMemoryServerRestart is serverRestart for the probe half.
func TestProbeMemoryServerRestart(t *testing.T) { serverRestart(t, probeHalf(t)) }

// TestStoreMemoryServerRestart is serverRestart for the store half.
func TestStoreMemoryServerRestart(t *testing.T) { serverRestart(t, storeHalf()) }

// TestMemoryUndecodable: a request the server cannot decode against its
// memory — a kept one that names as changed a field the server remembers,
// sent because the client's memory was made to disagree — is refused with
// dht.ClassOther, is not served, and ends the connection at both ends: the server
// closes it, the client drops its socket, and the next request dials afresh —
// a dial, not a redial — and goes out whole.
func TestMemoryUndecodable(t *testing.T) {
	for _, h := range memoryHalves(t) {
		t.Run(h.name, func(t *testing.T) {
			s, sreg := h.server(t, "127.0.0.1:0")
			c, reg := storeClient(t, s.Addr(), 1)
			h.expect(t, c, reg, s, sreg, false, "the first request")
			pc := lockedSlot(t, c.peers, s.Addr(), 0)
			h.spoil(t, &pc.mem)
			pc.mu.Unlock()
			ops := h.served(s)
			_, err := h.ask(c, s)
			if re := (remoteErr{}); !errors.As(err, &re) || re.class != dht.ClassOther {
				t.Fatalf("a request the server cannot decode: %v, want dht.ClassOther", err)
			}
			if n := h.served(s) - ops; n != 0 {
				t.Errorf("the refused request was served %d times", n)
			}
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				open := len(s.port.Conns())
				if open == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the server still holds %d connections after refusing the request", open)
				}
			}
			dials, redials := counter(reg, "netdht_dials_total"), counter(reg, "netdht_redials_total")
			h.expect(t, c, reg, s, sreg, false, "the request after the refusal")
			if d, r := counter(reg, "netdht_dials_total")-dials, counter(reg, "netdht_redials_total")-redials; d != 1 || r != 0 {
				t.Errorf("the request after the refusal made %d dials and %d redials, want 1 and 0", d, r)
			}
		})
	}
}
