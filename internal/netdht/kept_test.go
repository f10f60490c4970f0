package netdht

import (
	"fmt"
	"testing"

	"dhsketch/internal/md4"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// Tests of the reply memory's lifetime on a ring: it is born and dies with
// its socket, it never holds an arc back from a client that needs the new
// one, and what it saves costs no estimate.

// keptMasks is how many probe-reply masks a client has read as kept.
func keptMasks(reg *metrics.Registry) uint64 {
	return reg.Counter("netdht_probe_masks_total", "", metrics.L("form", "kept")).Value()
}

// severInbound closes every connection a server has accepted, as a server
// that reaped them would: their clients find the sockets stale.
func severInbound(s *Server) {
	s.inMu.Lock()
	defer s.inMu.Unlock()
	for c := range s.inConns {
		c.Close()
	}
}

// forgetReplies drops every socket of a client's pool, and the reply memory
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
