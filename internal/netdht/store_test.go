package netdht

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// Tests for the routed store: an insert is one exchange at the client,
// the tuple lands where the ring's route for its target ends, and a route
// that does not end in a store is never read as one.

// storeClient builds a seeded, instrumented client at the repo
// benchmark's geometry, entering the ring at entry.
func storeClient(t testing.TB, entry string, seed uint64) (*Client, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: seed,
		Retries: 1, Backoff: time.Millisecond,
		DialTimeout: 500 * time.Millisecond, RPCTimeout: 2 * time.Second, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)
	return c, reg
}

// routedTotal sums the Routed counters of a cluster's live servers.
func routedTotal(servers []*Server) (n int64) {
	for _, s := range servers {
		n += s.counters.Snapshot().Routed
	}
	return n
}

// tupleAt reports whether s holds the tuple an insert frame stores.
func tupleAt(s *Server, m wire.Insert) bool {
	st, ok := s.App().(*store.Store)
	return ok && st.Has(store.Key{Metric: uint64(wire.FoldMetric(m.Metric)), Vector: int32(m.Vector), Bit: m.Bit}, s.nowFn())
}

// TestInsertPlacementAndBudget: on a converged ring every Insert costs
// the client exactly one exchange, metered as an insert; the tuple sits on
// the node the membership oracle names for the target the client drew —
// and nowhere else; and the hops the acks report are the Routed increments
// the inserts caused (the dhttest metering invariant, over the store).
func TestInsertPlacementAndBudget(t *testing.T) {
	const n, seed, metric = 2000, 11, 77
	env := sim.NewEnv(31)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := storeClient(t, servers[0].Addr(), seed)

	// The client's target stream, replayed: same seed, same draws.
	replay := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908))
	type placed struct {
		owner  uint64
		target uint64
		tuple  wire.Insert
	}
	var want []placed
	distinct := map[[2]uint64]bool{} // (owner, vector<<8|bit)
	routed0 := routedTotal(servers)
	for i := 0; i < n; i++ {
		item := uint64(i)*0x9e3779b97f4a7c15 + 1
		if err := c.Insert(metric, item); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		vector, bit := c.geom.Split(item)
		target := c.geom.Target(replay, bit)
		owner, err := cl.Owner(target)
		if err != nil {
			t.Fatalf("Owner(%016x): %v", target, err)
		}
		want = append(want, placed{owner.ID(), target, wire.Insert{Metric: metric, Vector: uint16(vector), Bit: uint8(bit)}})
		distinct[[2]uint64{owner.ID(), uint64(vector)<<8 | uint64(bit)}] = true
	}
	insertRouted := routedTotal(servers) - routed0

	if outExchanges(reg) != n || outRPCs(reg, "insert") != n {
		t.Errorf("%d inserts cost %d client exchanges (%d tagged insert), want %d of each",
			n, outExchanges(reg), outRPCs(reg, "insert"), n)
	}

	var stored int
	var storeOps int64
	for _, s := range servers {
		if st, ok := s.App().(*store.Store); ok {
			stored += st.Len(s.nowFn())
		}
		storeOps += s.counters.Snapshot().StoreOps
	}
	for i, w := range want {
		owner, _ := cl.ByID(w.owner)
		if !tupleAt(owner, w.tuple) {
			t.Fatalf("insert %d (target %016x): tuple %+v is not on owner %016x", i, w.target, w.tuple, w.owner)
		}
	}
	if stored != len(distinct) {
		t.Errorf("ring holds %d tuples, want the %d distinct (owner, tuple) placements and no other", stored, len(distinct))
	}
	if storeOps != n {
		t.Errorf("store_ops = %d over the ring, want one per insert (%d)", storeOps, n)
	}

	// The same targets again, reading the acks: the route is a function
	// of (entry, target) on a converged ring, so these cost what the
	// inserts cost.
	routed0 = routedTotal(servers)
	var ackHops int64
	for _, w := range want {
		ack, err := c.store(w.target, wire.EncodeInsert(w.tuple))
		if err != nil {
			t.Fatalf("store at %016x: %v", w.target, err)
		}
		if ack.stale != 0 {
			t.Fatalf("store at %016x paid %d stale hops on a converged ring", w.target, ack.stale)
		}
		ackHops += int64(ack.hops)
	}
	if d := routedTotal(servers) - routed0; d != ackHops || insertRouted != ackHops || ackHops == 0 {
		t.Errorf("acks report %d hops; Routed moved by %d for them and by %d for the inserts", ackHops, d, insertRouted)
	}
}

// TestRoutedStoreMetered: the insert stays visible from outside under the
// series it always had — the origin's exchange and the servers' handling
// are tag="insert" on both sides of the wire, the client issues no
// find_succ of its own, and store_ops counts one per stored tuple.
func TestRoutedStoreMetered(t *testing.T) {
	regs := [2]*metrics.Registry{metrics.New(), metrics.New()}
	var ring [2]*Server
	for i := range ring {
		s, err := NewServer("127.0.0.1:0", obsOptions(regs[i], nil))
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(s.Close)
		ring[i] = s
	}
	if err := ring[1].Join(ring[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	ring[1].stabilizeRound()
	ring[0].stabilizeRound()

	// Four lanes share the client, as the repo benchmark's writers do.
	const n, lanes = 200, 4
	c, reg := storeClient(t, ring[0].Addr(), 3)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < n; i += lanes {
				if err := c.Insert(9, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
					t.Errorf("insert %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	label := metrics.L("tag", "insert")
	if got := outRPCs(reg, "insert"); got != n || outRPCs(reg, "find_succ") != 0 {
		t.Errorf("client: %d insert and %d find_succ exchanges, want %d and 0", got, outRPCs(reg, "find_succ"), n)
	}
	if got := reg.Histogram("netdht_out_rpc_seconds", "", metrics.DefLatencyBuckets, label).Count(); got != n {
		t.Errorf("client insert round-trip histogram holds %d samples, want %d", got, n)
	}
	var handled uint64
	var storeOps int64
	for i, s := range ring {
		handled += regs[i].Histogram("netdht_rpc_seconds", "", metrics.DefLatencyBuckets, label).Count()
		storeOps += s.Status().StoreOps
	}
	// The entry handles every insert; its peer those routed on to it.
	if handled < n || handled > 2*n {
		t.Errorf("servers handled %d insert frames for %d inserts", handled, n)
	}
	if storeOps != n {
		t.Errorf("statusz store_ops sum to %d, want %d", storeOps, n)
	}
}

// TestRoutedStoreBulkFrame: the payload may be wire's bulk tuple frame;
// the node the route ends at applies it through the bulk handler — every
// vector stored, one store operation.
func TestRoutedStoreBulkFrame(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	c, _ := storeClient(t, s.Addr(), 1)
	vectors := []uint16{1, 5, 63}
	if _, err := c.store(42, wire.EncodeBulkInsert(wire.BulkInsert{Metric: 4, Bit: 3, Vectors: vectors})); err != nil {
		t.Fatalf("bulk store: %v", err)
	}
	for _, v := range vectors {
		if !tupleAt(s, wire.Insert{Metric: 4, Vector: v, Bit: 3}) {
			t.Errorf("vector %d of the bulk frame is not stored", v)
		}
	}
	if st := s.Status(); st.StoreTuples != len(vectors) || st.StoreOps != 1 {
		t.Errorf("status %+v, want %d tuples from 1 store operation", st, len(vectors))
	}
}

// TestBareInsertFrameRefused: a tuple frame that arrives on its own, not
// behind a routed store, would land on whatever node the peer dialled and
// bypass §3.2's placement. Both shapes are refused and nothing is stored.
func TestBareInsertFrameRefused(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	c, _ := storeClient(t, s.Addr(), 1)
	for name, frame := range map[string][]byte{
		"insert":      wire.EncodeInsert(wire.Insert{Metric: 4, Vector: 5, Bit: 3}),
		"bulk insert": wire.EncodeBulkInsert(wire.BulkInsert{Metric: 4, Bit: 3, Vectors: []uint16{1, 5}}),
	} {
		raw, err := c.peers.exchangeRetry(s.Addr(), frame, 0, 0)
		if err != nil {
			t.Fatalf("%s: exchange: %v", name, err)
		}
		if code, _, _, derr := decodeErr(raw); derr != nil || code != errnoBad {
			t.Errorf("bare %s frame got % x (errno %d, %v), want errnoBad", name, raw, code, derr)
		}
	}
	if st := s.Status(); st.StoreTuples != 0 || st.StoreOps != 0 {
		t.Errorf("status %+v after refused frames, want an empty store and no store operation", st)
	}
	if _, ok := s.App().(*store.Store); ok {
		t.Errorf("a refused frame created the node's store")
	}
}

// TestRoutedStoreCrashedOwner: the believed owner of the target is dead
// and no round has repaired its arc yet. The route pays the discovery and
// delivers to the next covering successor, which stores and acks — inside
// one RPC timeout, and as one exchange at the client.
func TestRoutedStoreCrashedOwner(t *testing.T) {
	env := sim.NewEnv(47)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := storeClient(t, servers[0].Addr(), 5)

	victim := servers[4]
	target := victim.ID() // the top of the victim's arc
	cl.Crash(victim)
	heir, err := cl.Owner(target)
	if err != nil {
		t.Fatalf("Owner after the crash: %v", err)
	}

	tuple := wire.Insert{Metric: 5, Vector: 3, Bit: 2}
	start := time.Now()
	ack, err := c.store(target, wire.EncodeInsert(tuple))
	if took := time.Since(start); took > c.cfg.RPCTimeout {
		t.Errorf("store over a crashed owner took %v, past the RPC timeout", took)
	}
	if err != nil {
		t.Fatalf("store over a crashed owner failed with %v; live successors cover the arc", err)
	}
	if ack.stale == 0 {
		t.Errorf("ack %+v reports no stale hop, but the believed owner is dead", ack)
	}
	if !tupleAt(heir.(*Server), tuple) {
		t.Errorf("tuple is not on %016x, the successor that inherits the arc", heir.ID())
	}
	if got := outRPCs(reg, "insert"); got != 1 {
		t.Errorf("client spent %d exchanges, want 1: the detour is the ring's", got)
	}
}

// TestRoutedStoreDownTerminal: a node that still answers but is shutting
// down (alive == false) refuses a routed store with errnoNodeDown, and the
// sender's Route moves to its next candidate exactly as it does for a
// plain find_succ: same owner, same cost.
func TestRoutedStoreDownTerminal(t *testing.T) {
	env := sim.NewEnv(53)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, _ := storeClient(t, servers[0].Addr(), 5)

	down, next := servers[4], servers[5]
	target := down.ID()
	tuple := wire.Insert{Metric: 5, Vector: 7, Bit: 1}
	down.alive.Store(false) // the listener keeps answering
	defer down.alive.Store(true)

	raw, err := c.peers.exchange(down.Addr(), encodeFindSucc(findSuccMsg{
		flags: flagForwarded | flagDeliver, key: target, hops: 2, stale: 1, store: wire.EncodeInsert(tuple)}))
	if err != nil {
		t.Fatalf("exchange with the down node: %v", err)
	}
	if code, hops, stale, err := replyErr(raw); code != errnoNodeDown || hops != 2 || stale != 1 || !errors.Is(err, dht.ErrNodeDown) {
		t.Fatalf("down node answered code %d hops %d stale %d (%v), want errnoNodeDown with the cost so far", code, hops, stale, err)
	}

	found, err := c.findSucc(target, 0)
	if err != nil {
		t.Fatalf("find_succ around the down node: %v", err)
	}
	ack, err := c.store(target, wire.EncodeInsert(tuple))
	if err != nil {
		t.Fatalf("store around the down node: %v", err)
	}
	if found.owner.ID != next.ID() || ack.hops != found.hops || ack.stale != found.stale || ack.stale == 0 {
		t.Errorf("find_succ ended at %016x (hops %d, stale %d), the store's ack says hops %d, stale %d; want node %016x and equal costs",
			found.owner.ID, found.hops, found.stale, ack.hops, ack.stale, next.ID())
	}
	if !tupleAt(next, tuple) || tupleAt(down, tuple) {
		t.Errorf("tuple on next=%v, on the down node=%v; want true, false", tupleAt(next, tuple), tupleAt(down, tuple))
	}
}

// TestRoutedStoreUnhonoured: a peer that routes the key but ignores the
// tuple — it answers with an ordinary find_succ reply — has stored
// nothing, and nobody may take its reply for an ack: the client returns
// an error, and a relaying server counts the peer as a failed candidate.
func TestRoutedStoreUnhonoured(t *testing.T) {
	const fakeID = 1 << 62
	fake := fakePeer(t, func(self string, req []byte) []byte {
		m, err := decodeFindSucc(req)
		if err != nil || m.store == nil {
			t.Errorf("fake peer got %x (%v), want a routed store", req, err)
		}
		return encodeFindSuccResp(findSuccRespMsg{hops: m.hops, stale: m.stale, owner: chord.Ref{ID: fakeID, Addr: self}})
	})

	t.Run("entry", func(t *testing.T) {
		c, _ := storeClient(t, fake, 1)
		err := c.Insert(1, 2)
		if !errors.Is(err, wire.ErrBadMessage) {
			t.Fatalf("Insert through a peer that ignores the tuple: %v, want a decode error", err)
		}
	})
	t.Run("relay", func(t *testing.T) {
		s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(s.Close)
		// A ring of two: the fake peer is the server's only neighbour and
		// the believed owner of its own identifier.
		ref := chord.Ref{ID: fakeID, Addr: fake}
		_, _, fingers := s.node.State()
		s.node.Seed(ref, []chord.Ref{ref}, fingers)

		c, _ := storeClient(t, s.Addr(), 1)
		ack, err := c.store(fakeID, wire.EncodeInsert(wire.Insert{Metric: 1}))
		if !errors.Is(err, dht.ErrNoRoute) {
			t.Fatalf("store relayed to a peer that ignores the tuple: ack %+v, err %v; want dht.ErrNoRoute", ack, err)
		}
		if s.App() != nil {
			t.Error("the relay stored the tuple itself")
		}
	})
}

// TestRoutedStoreCodec: the store request is the find_succ header with
// exactly one tuple frame behind it and the ack is six bytes; a plain
// find_succ is byte for byte what it was; and the decoders refuse what a
// peer could use to reach a handler it should not — a nested control
// frame, a foreign version, bytes before or after the tuple.
func TestRoutedStoreCodec(t *testing.T) {
	insert := wire.EncodeInsert(wire.Insert{Metric: 0xabcdef, Vector: 63, Bit: 10, TTL: 1200})
	bulk := wire.EncodeBulkInsert(wire.BulkInsert{Metric: 9, Bit: 4, TTL: 7, Vectors: []uint16{1, 2, 3}})
	for _, payload := range [][]byte{insert, bulk, wire.EncodeBulkInsert(wire.BulkInsert{Metric: 9})} {
		m := findSuccMsg{flags: flagForwarded | flagDeliver, key: math.MaxUint64, hops: 7, stale: 2, store: payload}
		frame := encodeFindSucc(m)
		if len(frame) != findSuccHeader+len(payload) || frame[1] != tagStore {
			t.Fatalf("store frame is %d bytes with tag %#x, want %d with tagStore", len(frame), frame[1], findSuccHeader+len(payload))
		}
		if got, err := decodeFindSucc(frame); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %x: %+v, %v", payload, got, err)
		}
	}
	plain := encodeFindSucc(findSuccMsg{flags: flagNeighbors, key: 42, hops: 1})
	if len(plain) != findSuccHeader || plain[1] != tagFindSucc {
		t.Errorf("plain find_succ is %d bytes with tag %#x", len(plain), plain[1])
	}
	if len(insert) != insertFrameLen {
		t.Fatalf("insert frame is %d bytes, insertFrameLen says %d", len(insert), insertFrameLen)
	}

	with := func(payload []byte) []byte { return encodeFindSucc(findSuccMsg{key: 1, store: payload}) }
	retag := func(frame []byte, at int, b byte) []byte {
		out := append([]byte(nil), frame...)
		out[at] = b
		return out
	}
	probe, err := wire.EncodeProbeReq(wire.ProbeReq{Bit: 1, NumVecs: 64, Metrics: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"no payload":              retag(plain, 1, tagStore),
		"one payload byte":        with(insert[:1]),
		"truncated insert":        with(insert[:len(insert)-1]),
		"byte after the insert":   with(append(append([]byte(nil), insert...), 0)),
		"odd bulk vector bytes":   with(bulk[:len(bulk)-1]),
		"truncated bulk header":   with(bulk[:7]),
		"foreign payload version": with(retag(insert, 0, wire.Version+1)),
		"nested ping":             with(encodePing()),
		"nested find_succ":        with(plain),
		"nested store":            with(with(insert)),
		"nested notify":           with(encodeNotify(chord.Ref{ID: 1, Addr: "a:1"})),
		"probe request":           with(probe),
		"probe reply tag":         with(retag(insert, 1, wire.TagProbeResp)),
		"foreign frame version":   retag(with(insert), 0, wire.Version+1),
		"truncated header":        with(insert)[:findSuccHeader-1],
	} {
		if m, err := decodeFindSucc(frame); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		} else if !errors.Is(err, wire.ErrShort) && !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("%s: error %v is not a wire decode error", name, err)
		}
	}

	ack := storeAckMsg{hops: 513, stale: 2}
	rawAck := encodeStoreAck(ack)
	if got, err := decodeStoreAck(rawAck); err != nil || got != ack || len(rawAck) != storeAckLen {
		t.Errorf("ack round trip: %+v, %v (%d bytes)", got, err, len(rawAck))
	}
	for name, frame := range map[string][]byte{
		"trailing byte":    append(append([]byte(nil), rawAck...), 0),
		"truncated":        rawAck[:5],
		"empty":            nil,
		"plain ack":        encodeAck(true),
		"find_succ reply":  encodeFindSuccResp(findSuccRespMsg{hops: 1, owner: chord.Ref{ID: 1, Addr: "a:1"}}),
		"typed error":      encodeErr(errnoNoRoute, 1, 1),
		"foreign version":  retag(rawAck, 0, wire.Version+1),
		"the request back": with(insert),
	} {
		if m, err := decodeStoreAck(frame); err == nil {
			t.Errorf("ack %s: accepted as %+v", name, m)
		} else if !errors.Is(err, wire.ErrShort) && !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("ack %s: error %v is not a wire decode error", name, err)
		}
	}
}
