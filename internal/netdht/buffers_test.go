package netdht

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// This file holds the tests of the rule the per-connection buffers bring —
// a frame is valid until the next read on its connection — and of the pins
// that keep the exchange rung from allocating: who may keep what, what a
// connection keeps between frames, and what a request leaves behind.

// lockedSlot returns the pool's i-th slot toward addr, locked.
func lockedSlot(t *testing.T, p *peerPool, addr string, i int) *peerConn {
	t.Helper()
	p.mu.Lock()
	e := p.peers[addr]
	p.mu.Unlock()
	if e == nil {
		t.Fatalf("pool has no entry for %s", addr)
	}
	pc := e.slots[i]
	pc.mu.Lock()
	return pc
}

// TestPoolDialsOnDemand: a socket beyond a peer's first exists only because
// every open one was in use. Sequential exchanges ride one socket whatever
// the width; as many concurrent ones as the width spread over it; and a
// socket the peer dropped is redialled in the slot it sat in.
func TestPoolDialsOnDemand(t *testing.T) {
	const delay = 100 * time.Millisecond
	var slow atomic.Bool // answer after delay
	addr := fakePeer(t, func(string, []byte) []byte {
		if slow.Load() {
			time.Sleep(delay)
		}
		return encodePong()
	})
	p := newPeerPool(DefaultPeerConns, nil)
	defer p.close()

	for i := 0; i < 100; i++ {
		if err := p.ping(addr); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	if n := p.size(); n != 1 {
		t.Fatalf("100 sequential exchanges opened %d sockets, want 1", n)
	}

	// The peer drops the socket; the next exchange finds it stale, redials
	// into the same slot and succeeds, and still nothing else is open.
	pc := lockedSlot(t, p, addr, 0)
	old := pc.c
	old.Close()
	pc.mu.Unlock()
	if err := p.ping(addr); err != nil {
		t.Fatalf("exchange over a dropped socket: %v", err)
	}
	pc = lockedSlot(t, p, addr, 0)
	if pc.c == nil || pc.c == old {
		t.Errorf("slot 0 was not redialled in place: conn %v", pc.c)
	}
	pc.mu.Unlock()
	if n := p.size(); n != 1 {
		t.Fatalf("a redial left %d sockets open, want 1", n)
	}

	slow.Store(true)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < DefaultPeerConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.ping(addr); err != nil {
				t.Errorf("concurrent exchange: %v", err)
			}
		}()
	}
	wg.Wait()
	if d := time.Since(start); d >= 2*delay {
		t.Errorf("%d concurrent exchanges took %v; want them to overlap (< %v)", DefaultPeerConns, d, 2*delay)
	}
	if n := p.size(); n != DefaultPeerConns {
		t.Errorf("%d concurrent exchanges opened %d sockets, want one each", DefaultPeerConns, n)
	}
}

// bigProbe is a probe request whose reply nearly fills a frame: 256
// positions × 60 metrics of 64-byte masks. They are all metric 0's.
func bigProbe(t *testing.T) []byte {
	t.Helper()
	req, err := wire.EncodeProbeReq(wire.ProbeReq{Span: 255, NumVecs: 512, Metrics: make([]uint64, 60)})
	if err != nil {
		t.Fatalf("EncodeProbeReq: %v", err)
	}
	return req
}

// halfFill stores metric's every even vector below m at bits lo … hi: masks
// no coding shortens, so a reply of them travels dense.
func halfFill(s *Server, metric uint64, m int, lo, hi uint8) {
	st := s.ensureStore()
	for b := int(lo); b <= int(hi); b++ {
		for v := 0; v < m; v += 2 {
			st.Set(store.Key{Metric: metric, Vector: int32(v), Bit: uint8(b)}, math.MaxInt64)
		}
	}
}

// TestConnBufferRelease: buffers are reused, not hoarded. A near-maxFrame
// reply grows the server connection's write buffer and the asking slot's
// read buffer for the one exchange; once it is handled neither keeps more
// than keepFrame, and the pings that follow run in small buffers again.
func TestConnBufferRelease(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	halfFill(s, 0, 512, 0, 255)
	req := bigProbe(t)
	capsOK := func(where string, bufs ...[]byte) {
		t.Helper()
		for _, b := range bufs {
			if cap(b) > keepFrame {
				t.Errorf("%s: a buffer of %d bytes is kept, more than keepFrame = %d", where, cap(b), keepFrame)
			}
		}
	}

	// The asking side: a pool slot.
	p := newPeerPool(1, nil)
	defer p.close()
	var resp []byte
	err = p.exchange(s.Addr(), req, func(reply []byte, _ *wire.Memory) error { resp = bytes.Clone(reply); return nil })
	if err != nil || len(resp) < maxFrame*9/10 || len(resp) > maxFrame {
		t.Fatalf("big probe: %d bytes, %v; want a reply of nearly maxFrame", len(resp), err)
	}
	pc := lockedSlot(t, p, s.Addr(), 0)
	capsOK("slot after the big reply", pc.rbuf, pc.wbuf)
	pc.mu.Unlock()
	for i := 0; i < 3; i++ {
		if err := p.ping(s.Addr()); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	pc = lockedSlot(t, p, s.Addr(), 0)
	capsOK("slot after pings", pc.rbuf, pc.wbuf)
	pc.mu.Unlock()

	// The answering side: one connection's serve loop, run here over an
	// in-memory pipe so that its buffers can be looked at once it returned.
	cli, srv := net.Pipe()
	in := s.newInbound()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for in.step(srv) == nil {
		}
	}()
	var buf []byte
	for i, r := range [][]byte{req, pingFrame, pingFrame} {
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(cli, framed(r)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if buf, err = readFrame(cli, buf); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if i == 0 && !bytes.Equal(buf, resp) {
			t.Errorf("the pipe's big reply differs from the socket's")
		}
	}
	cli.Close()
	<-done
	capsOK("server connection", in.rbuf, in.wbuf)
}

// allocServer is a ring member that owns key — its own identifier — with a
// predecessor to name in a probe reply's arc.
func allocServer(t *testing.T, reg *metrics.Registry) (s *Server, key uint64) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", Options{Metrics: reg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	s.Protocol().HandleNotify(chord.Ref{ID: s.ID() - 1000, Addr: "127.0.0.1:1"})
	return s, s.ID()
}

// TestServeStepZeroAlloc pins the server half of the exchange rung: the
// per-connection serve step — request in the read buffer, reply built in the
// write buffer — allocates nothing for the four requests a busy node sees,
// a store and a probe among them whole and, on a connection that carried them
// before, kept, with metrics on and with metrics off.
func TestServeStepZeroAlloc(t *testing.T) {
	for name, reg := range map[string]*metrics.Registry{"metrics on": metrics.New(), "nil registry": nil} {
		s, key := allocServer(t, reg)
		tuple := wire.EncodeInsert(wire.Insert{Metric: 7, Vector: 3, Bit: 4, TTL: 1200})
		run := wire.ProbeReq{Bit: 2, Span: 6, NumVecs: 64, Metrics: []uint64{7}}
		probe, err := wire.EncodeProbeReq(run)
		if err != nil {
			t.Fatal(err)
		}
		halfFill(s, 8, 64, 2, 8)
		dense, err := wire.EncodeProbeReq(wire.ProbeReq{Bit: 2, Span: 6, NumVecs: 64, Metrics: []uint64{8}})
		if err != nil {
			t.Fatal(err)
		}
		store := findSuccMsg{key: key, store: tuple}
		kept, _ := onSocket([]findSuccMsg{store, store}, nil)
		keptProbe := askAfter(t, run, run)
		in := s.newInbound()
		for _, c := range []struct {
			what string
			req  []byte
			tag  byte
		}{
			{"store of an existing tuple", encodeFindSucc(store), tagStoreAck},
			{"the same store, kept", kept, tagStoreAckKept},
			{"probe of 7 positions at m=64, coded", probe, wire.TagProbeRespCoded},
			{"the same probe, kept, and its reply all kept", keptProbe, wire.TagProbeRespSame},
			{"probe of 7 positions at m=64, dense", dense, wire.TagProbeResp},
			{"find_succ answered locally", encodeFindSucc(findSuccMsg{key: key}), tagFindSuccResp},
			{"find_succ with its neighbourhood", encodeFindSucc(findSuccMsg{flags: flagNeighbors, key: key}), tagFindSuccResp},
			{"ping", pingFrame, tagPong},
		} {
			if reply := in.dispatch(c.req)[4:]; len(reply) < 2 || reply[1] != c.tag {
				t.Fatalf("%s, %s: reply % x, want tag %#x", name, c.what, reply, c.tag)
			}
			if n := testing.AllocsPerRun(100, func() { in.dispatch(c.req) }); n != 0 {
				t.Errorf("%s, %s: the serve step allocated %.1f/op, want 0", name, c.what, n)
			}
		}
	}
}

// TestExchangeZeroAlloc pins the whole rung on a loopback pair, both ends in
// this process: a steady-state ping round trip through the pool — slot,
// frame out, the server's serve step, frame in, the reply decoded in the
// slot — allocates nothing on either side. Nor does a warm probe: the
// request encoded kept in the slot, decoded and answered against the
// server's memory, and its reply all kept. Such a reply leaves either memory
// as it was, so reading its tag reads all of it; decoding it into masks of
// the scan's own is the one allocation a probe makes, outside the rung.
func TestExchangeZeroAlloc(t *testing.T) {
	s, _ := allocServer(t, metrics.New())
	p := newPeerPool(DefaultPeerConns, metrics.New())
	defer p.close()
	ping := func() {
		if err := p.ping(s.Addr()); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	ping() // dial, and grow the four buffers
	if n := testing.AllocsPerRun(200, ping); n != 0 {
		t.Errorf("a steady-state ping round trip allocated %.2f/op, want 0", n)
	}

	q := wire.ProbeReq{Bit: 2, Span: 6, NumVecs: 64, Metrics: []uint64{7}}
	probe, err := wire.EncodeProbeReq(q)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(reply []byte, mem *wire.Memory) error {
		_, err := wire.DecodeProbeRespTo(nil, q, reply, mem, nil)
		return err
	}
	same := func(reply []byte, _ *wire.Memory) error {
		if len(reply) != 2 || reply[1] != wire.TagProbeRespSame {
			return fmt.Errorf("reply % x, want the tag alone", reply)
		}
		return nil
	}
	ask := func(read func([]byte, *wire.Memory) error) {
		if err := p.exchange(s.Addr(), probe, read); err != nil {
			t.Fatalf("probe: %v", err)
		}
	}
	ask(decode) // whole, and recorded at both ends
	ask(same)
	if n := testing.AllocsPerRun(200, func() { ask(same) }); n != 0 {
		t.Errorf("a warm probe round trip allocated %.2f/op, want 0", n)
	}
}

// refProbeReply is the probe reply as the server built it before it copied
// the store's bit words: list the vectors of every (metric, bit), set those
// below NumVecs one by one into zeroed masks, encode. Kept as the reference
// the word copy must match byte for byte.
func refProbeReply(t *testing.T, st *store.Store, now int64, q wire.ProbeReq, pred chord.Ref) []byte {
	t.Helper()
	var masks [][]byte
	for b := 0; b <= int(q.Span); b++ {
		for _, metric := range q.Metrics {
			mask := make([]byte, wire.MaskBytes(int(q.NumVecs)))
			for wi, w := range st.AppendBitsWithBit(nil, metric, q.Bit+uint8(b), now) {
				for ; w != 0; w &= w - 1 {
					if v := wi<<6 + bits.TrailingZeros64(w); v < int(q.NumVecs) {
						wire.SetVec(mask, v)
					}
				}
			}
			masks = append(masks, mask)
		}
	}
	raw, err := wire.EncodeProbeResp(wire.ProbeResp{Bit: q.Bit, Span: q.Span, NumVecs: q.NumVecs, VecMasks: masks,
		HasArc: pred.Valid(), ArcLo: pred.ID})
	if err != nil {
		t.Fatalf("EncodeProbeResp: %v", err)
	}
	return raw
}

// TestProbeMasksEquivalence: the reply whose masks are the store's bit words
// is the reply the bit-by-bit construction gave, wherever the two could part:
// mask widths that are a fraction of a word, one word and several; vectors at
// and beyond m, stored by a writer with another geometry, which are dropped;
// tuples that expired; a store with nothing; runs of 1 and 7 positions of 1
// and 3 metrics; with and without the arc trailer.
func TestProbeMasksEquivalence(t *testing.T) {
	const now = 100
	empty, err := NewServer("127.0.0.1:0", Options{Now: func() int64 { return now }})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(empty.Close)
	full, err := NewServer("127.0.0.1:0", Options{Now: func() int64 { return now }})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(full.Close)
	pred := chord.Ref{ID: 77, Addr: "127.0.0.1:1"}
	full.Protocol().HandleNotify(pred)

	// Vectors 0 … 699 of a 1024-vector writer, a third of them expired by
	// now, over positions 0 … 8 of three metrics and part of a fourth.
	rng := rand.New(rand.NewPCG(1, 2))
	st := full.ensureStore()
	for i := 0; i < 6000; i++ {
		k := store.Key{Metric: 1 + rng.Uint64N(4), Vector: int32(rng.IntN(700)), Bit: uint8(rng.IntN(9))}
		expiry := int64(math.MaxInt64)
		if rng.IntN(3) == 0 {
			expiry = now - 1 - int64(rng.IntN(50))
		}
		st.Set(k, expiry)
	}
	// The edges by hand: the last vector below each m and the first at it.
	for _, v := range []int32{1, 2, 7, 8, 63, 64, 127, 128, 511, 512} {
		st.Set(store.Key{Metric: 1, Vector: v, Bit: 3}, math.MaxInt64)
	}

	for _, s := range []*Server{empty, full} {
		st, _ := s.App().(*store.Store)
		for _, m := range []uint16{2, 8, 64, 128, 512} {
			for _, span := range []uint8{0, 6} {
				for _, metrics := range [][]uint64{{1}, {3, 1, 9}} {
					q := wire.ProbeReq{Bit: 1, Span: span, NumVecs: m, Metrics: metrics}
					req, err := wire.EncodeProbeReq(q)
					if err != nil {
						t.Fatal(err)
					}
					want := refProbeReply(t, st, now, q, s.Protocol().Neighbors().Pred)
					if got := s.dispatch(req); !bytes.Equal(got, want) {
						t.Errorf("m=%d span=%d metrics=%v store=%v:\n got % x\nwant % x", m, span, metrics, st != nil, got, want)
					}
				}
			}
		}
	}
	// The reference is not vacuous: the hand-set edge shows at every m.
	q := wire.ProbeReq{Bit: 3, NumVecs: 64, Metrics: []uint64{1}}
	resp, err := wire.DecodeProbeResp(refProbeReply(t, st, now, q, pred))
	if err != nil || !wire.HasVec(resp.VecMasks[0], 63) || !resp.HasArc {
		t.Fatalf("reference reply %+v, %v: want vector 63 set and an arc", resp, err)
	}
}

// TestScanOwnsItsAnswers: a scan keeps each owner's masks for its whole
// life, a connection keeps a frame until its next read. With a pool one
// socket wide, every first answer an owner gives the scan is followed — on
// the same socket, before the scan uses the answer again — by a whole count
// of another metric, whose probes of that owner overwrite the slot's read
// buffer. The scan's answers must not change under it, and its result must
// be the one the reference prober gathers undisturbed.
func TestScanOwnsItsAnswers(t *testing.T) {
	cl := newTestCluster(t, sim.NewEnv(3), 8)
	entry := cl.Servers()[0].Addr()
	loadRing(t, entry, sketch.KindSuperLogLog, 0, 600) // metric 5
	loader, _ := storeClient(t, entry, 11)
	for i := 0; i < 3000; i++ { // metric 6: other items, more of them
		if err := loader.Insert(6, uint64(i)*0xc2b2ae3d27d4eb4f+7); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}

	cfg := ClientConfig{Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: 9}
	c, err := newClient(cfg, 1)
	if err != nil {
		t.Fatalf("newClient: %v", err)
	}
	t.Cleanup(c.Close)
	ref, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(ref.Close)
	want := ref.count(&refProber{c: ref, visits: map[visit]bool{}}, 5, nil)

	type heard struct {
		owner uint64
		masks [][]byte
	}
	var snaps []heard
	sameOwner := 0
	p := &rpcProber{c: c}
	// Each probe event with Arg 1 is a first answer from the wire.
	firstAnswer := sinkFunc(func(e obs.Event) {
		if e.Kind != obs.KindProbe || e.Arg != 1 {
			return
		}
		var masks [][]byte
		for _, m := range p.told[e.Node].masks {
			masks = append(masks, bytes.Clone(m))
		}
		snaps = append(snaps, heard{e.Node, masks})
		// The other count draws from a stream of its own, so that the scan
		// under test draws what the reference drew.
		saved := c.rng
		c.rng = rand.New(rand.NewPCG(uint64(len(snaps)), 99))
		sameProbe := sinkFunc(func(o obs.Event) {
			if o.Kind == obs.KindProbe && o.Arg == 1 && o.Node == e.Node {
				sameOwner++
			}
		})
		if res := c.count(&rpcProber{c: c}, 6, sameProbe); res.Degraded {
			t.Errorf("the count in between: %+v", res)
		}
		c.rng = saved
	})
	got := c.count(p, 5, firstAnswer)
	if got != want {
		t.Errorf("scan with counts in between = %+v, reference = %+v", got, want)
	}
	if len(snaps) == 0 || sameOwner == 0 {
		t.Fatalf("%d first answers, %d followed by a probe of the same owner: the test did not bite", len(snaps), sameOwner)
	}
	if n := c.peers.size(); n > len(cl.Servers()) {
		t.Errorf("%d sockets open toward %d servers at width 1", n, len(cl.Servers()))
	}
	for _, h := range snaps {
		if now := p.told[h.owner].masks; !reflect.DeepEqual(now, h.masks) {
			t.Errorf("owner %016x: the scan's answers changed under it:\n was %x\n now %x", h.owner, h.masks, now)
		}
	}
}

// TestRelayedStoreKeepsItsBytes: a relayed store's tuple frame lives in the
// inbound connection's read buffer until the ack is written, and is copied
// from there into the outbound slot at every hop. Stores sent cold through
// one entry are relayed over two hops and more while other clients keep the
// same servers' other connections busy; every acknowledged tuple must sit on
// its key's owner, and the ring must hold the tuples sent and no other.
func TestRelayedStoreKeepsItsBytes(t *testing.T) {
	cl := newTestCluster(t, sim.NewEnv(5), 32)
	servers := cl.Servers()
	const writers, each = 4, 150
	var wg sync.WaitGroup
	var mu sync.Mutex
	sent := map[store.Key]bool{}
	twoHops := 0
	for w := 0; w < writers; w++ {
		c, _ := storeClient(t, servers[0].Addr(), uint64(20+w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for i := 0; i < each; i++ {
				tuple := wire.Insert{Metric: uint64(100 + w), Vector: uint16(rng.IntN(64)), Bit: uint8(rng.IntN(12)), TTL: 0}
				target := rng.Uint64()
				// Undirected and unflagged: the entry routes it like a peer's.
				ack, err := c.peers.route(servers[0].Addr(), findSuccMsg{key: target, store: wire.EncodeInsert(tuple)}, nil)
				if err != nil {
					t.Errorf("writer %d store %d: %v", w, i, err)
					return
				}
				owner, err := cl.Owner(target)
				if err != nil || !tupleAt(owner.(*Server), tuple) {
					t.Errorf("writer %d: tuple %+v for %016x is not on its owner (%v)", w, tuple, target, err)
				}
				mu.Lock()
				sent[store.Key{Metric: tuple.Metric, Vector: int32(tuple.Vector), Bit: tuple.Bit}] = true
				if ack.Hops >= 2 {
					twoHops++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if twoHops == 0 {
		t.Fatal("no store was relayed over two hops: the test did not bite")
	}
	held := map[store.Key]bool{}
	for _, s := range servers {
		if st, ok := s.App().(*store.Store); ok {
			for _, k := range st.Keys(0) {
				held[k] = true
			}
		}
	}
	if !reflect.DeepEqual(held, sent) {
		t.Errorf("the ring holds %d distinct tuples, %d were sent; a relay stored bytes it was not given", len(held), len(sent))
	}
}

// TestConcurrentCountInsertOneClient: counts and inserts share one client's
// slots, so a count's reply and an insert's ack follow each other through
// the same buffers. On a ring of one node every exchange goes to one peer —
// all of them through one slot at width 1, spread over four at width 4 — and
// a scan's result is a function of the store alone, so the concurrent
// results can be held to a serial run's exactly: the same count, every time,
// and the same tuples stored.
func TestConcurrentCountInsertOneClient(t *testing.T) {
	item := func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 }
	run := func(t *testing.T, width int, concurrent bool) (counts map[CountResult]int, keys []store.Key) {
		s, err := NewServer("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(s.Close)
		c, err := newClient(ClientConfig{Entry: s.Addr(), K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: 4}, width)
		if err != nil {
			t.Fatalf("newClient: %v", err)
		}
		t.Cleanup(c.Close)
		for i := 0; i < 800; i++ {
			if err := c.Insert(5, item(i)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		counts = map[CountResult]int{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		worker := func(f func(i int)) {
			wg.Add(1)
			body := func() {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					f(i)
				}
			}
			if concurrent {
				go body()
			} else {
				body()
			}
		}
		for g := 0; g < 3; g++ {
			worker(func(int) {
				res, err := c.Count(5)
				if err != nil {
					t.Errorf("count: %v", err)
				}
				mu.Lock()
				counts[res]++
				mu.Unlock()
			})
			worker(func(i int) {
				if err := c.Insert(6, item(1000+i%40)); err != nil {
					t.Errorf("insert: %v", err)
				}
			})
		}
		wg.Wait()
		return counts, s.App().(*store.Store).Keys(0)
	}
	wantCounts, wantKeys := run(t, DefaultPeerConns, false)
	if len(wantCounts) != 1 {
		t.Fatalf("serial counts on a ring of one disagree: %v", wantCounts)
	}
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprint("width", width), func(t *testing.T) {
			counts, keys := run(t, width, true)
			if !reflect.DeepEqual(counts, wantCounts) {
				t.Errorf("concurrent counts %v, serial %v", counts, wantCounts)
			}
			if !reflect.DeepEqual(keys, wantKeys) {
				t.Errorf("concurrent run stored %d tuples, serial %d, or not the same ones", len(keys), len(wantKeys))
			}
		})
	}
}

// meteredCluster is NewCluster's converged ring of n servers, each
// instrumented into its own registry, or not at all when metered is false.
func meteredCluster(t *testing.T, n int, metered bool) *Cluster {
	t.Helper()
	env := sim.NewEnv(1)
	c := &Cluster{
		Membership: chord.NewMembership[*Server](chord.ProtocolConfig{}, env.Derive("netdht"), env.Clock.Now()),
		env:        env,
	}
	t.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		var reg *metrics.Registry
		if metered {
			reg = metrics.New()
		}
		name := fmt.Sprintf("node-%d:4000", i)
		s, err := NewServer("127.0.0.1:0", Options{
			Name: name, Protocol: c.Config(), Now: env.Clock.Now, Metrics: reg,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		c.Add(s)
	}
	c.SeedConverged()
	return c
}

// TestRoundZeroAlloc pins the maintenance rounds of a converged ring: one
// stabilize, fix-fingers or check-predecessor round of one node, counted at
// both ends of every exchange it makes, allocates nothing once the sockets
// are open, with metrics on and with metrics off. A node below the runtime's
// first collection keeps every byte it allocates, and the rounds run for as
// long as it lives.
func TestRoundZeroAlloc(t *testing.T) {
	for name, metered := range map[string]bool{"metrics on": true, "nil registry": false} {
		cl := meteredCluster(t, 8, metered)
		s := cl.Servers()[3]
		for _, round := range []struct {
			name string
			r    chord.RoundSet
		}{{"stabilize", chord.RoundStabilize}, {"fix_fingers", chord.RoundFixFingers}, {"check_pred", chord.RoundCheckPred}} {
			// A full finger cycle dials every socket the rounds use, at
			// every node a route passes through.
			for i := 0; i < 8; i++ {
				sweepServers(cl.Servers(), round.r)
			}
			if n := testing.AllocsPerRun(50, func() {
				if changes := s.round(round.r); changes != 0 {
					t.Fatalf("%s: a %s round of a converged ring made %d changes", name, round.name, changes)
				}
			}); n != 0 {
				t.Errorf("%s: one %s round allocated %.2f/op, want 0", name, round.name, n)
			}
		}
	}
}
