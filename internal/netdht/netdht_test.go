package netdht

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/dht/dhttest"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/wire"
)

// newTestCluster builds a cluster and registers its teardown.
func newTestCluster(t *testing.T, env *sim.Env, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(env, n, chord.ProtocolConfig{})
	if err != nil {
		t.Fatalf("NewCluster(%d): %v", n, err)
	}
	t.Cleanup(c.Close)
	return c
}

// settleCluster advances the virtual clock and runs protocol rounds
// until the cluster reports convergence.
func settleCluster(t *testing.T, c *Cluster, env *sim.Env) {
	t.Helper()
	for i := 0; i < 400 && !c.Converged(); i++ {
		env.Clock.Advance(8)
		c.Step()
	}
	if !c.Converged() {
		t.Fatal("cluster did not converge within the settle budget")
	}
}

// TestClusterContracts runs the full dht.Overlay conformance suite —
// the same one the simulated rings pass — against rings of real TCP
// servers on loopback.
func TestClusterContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("spins hundreds of TCP listeners")
	}
	dhttest.Run(t, dhttest.Harness{
		Name: "NetCluster",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return newTestCluster(t, env, n)
		},
	})
}

// TestFrameRoundTrip: the framing layer delivers payloads intact and
// rejects the malformed cases before allocating.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 250}
	if err := writeFrame(&buf, framed(payload)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: got %v, want %v", got, payload)
	}

	// Empty frame.
	var empty bytes.Buffer
	if err := writeFrame(&empty, framed(nil)); err != nil {
		t.Fatalf("writeFrame(empty): %v", err)
	}
	if _, err := readFrame(&empty, nil); err != errEmptyFrame {
		t.Fatalf("empty frame: err = %v, want errEmptyFrame", err)
	}

	// Oversized declared length must be refused before allocation.
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00}
	if _, err := readFrame(bytes.NewReader(big), nil); err != errFrameTooBig {
		t.Fatalf("oversized frame: err = %v, want errFrameTooBig", err)
	}

	// Truncated payload surfaces the underlying short read.
	trunc := []byte{0x00, 0x00, 0x00, 0x08, 0x01, 0x02}
	if _, err := readFrame(bytes.NewReader(trunc), nil); err == nil {
		t.Fatal("truncated frame: expected error")
	}
}

// TestControlMessageRoundTrips: every control-plane codec is a
// fixpoint, and decoders reject foreign tags.
func TestControlMessageRoundTrips(t *testing.T) {
	fs := findSuccMsg{flags: flagForwarded | flagDeliver, key: 0xDEADBEEFCAFE, hops: 7, stale: 2}
	gotFS, err := decodeFindSucc(encodeFindSucc(fs))
	if err != nil || !reflect.DeepEqual(gotFS, fs) {
		t.Fatalf("findSucc round trip: %+v, %v", gotFS, err)
	}

	fr := chord.Found{Hops: 3, Stale: 1, Owner: chord.Ref{ID: 42, Addr: "127.0.0.1:9999"}}
	gotFR, err := decodeFindSuccResp(encodeFindSuccResp(fr), nil)
	if err != nil || gotFR != fr {
		t.Fatalf("findSuccResp round trip: %+v, %v", gotFR, err)
	}

	self := chord.Ref{ID: 1, Addr: "a:1"}
	nb := chord.Neighbors{
		Pred: chord.Ref{ID: 2, Addr: "b:2"},
		Succ: []chord.Ref{{ID: 3, Addr: "c:3"}, {ID: 4, Addr: "d:4"}},
	}
	gotNB, err := decodeNeighborsResp(encodeNeighborsResp(self, nb), nil, nil)
	if err != nil || gotNB.Pred != nb.Pred || len(gotNB.Succ) != 2 ||
		gotNB.Succ[0] != nb.Succ[0] || gotNB.Succ[1] != nb.Succ[1] {
		t.Fatalf("neighbors round trip: %+v, %v", gotNB, err)
	}

	// No predecessor is representable.
	nb.Pred = chord.Ref{}
	gotNB, err = decodeNeighborsResp(encodeNeighborsResp(self, nb), nil, nil)
	if err != nil || gotNB.Pred.Valid() {
		t.Fatalf("neighbors without pred: %+v, %v", gotNB, err)
	}

	n := chord.Ref{ID: 99, Addr: "e:5"}
	gotN, err := decodeNotify(encodeNotify(n), nil)
	if err != nil || gotN != n {
		t.Fatalf("notify round trip: %+v, %v", gotN, err)
	}

	for _, changed := range []bool{true, false} {
		got, err := decodeAck(encodeAck(changed))
		if err != nil || got != changed {
			t.Fatalf("ack(%v) round trip: %v, %v", changed, got, err)
		}
	}

	code, hops, stale, err := decodeErr(encodeErr(dht.ClassTimeout, 9, 4))
	if err != nil || code != dht.ClassTimeout || hops != 9 || stale != 4 {
		t.Fatalf("err round trip: %d %d %d %v", code, hops, stale, err)
	}

	// Cross-tag decode is refused.
	if _, err := decodeFindSucc(encodeNotify(n)); err == nil {
		t.Fatal("decodeFindSucc accepted a notify frame")
	}
	if _, err := decodeAck(encodePong()); err == nil {
		t.Fatal("decodeAck accepted a pong frame")
	}
}

// TestMaskReplyWords: the probe reply's byte masks reach the shared
// scan as 64-bit bitset words with every vector at the same index, for
// mask lengths below, at and above one word, and a metric the reply
// does not carry reads as empty.
func TestMaskReplyWords(t *testing.T) {
	for _, m := range []int{1, 4, 16, 64, 128, 512} {
		mask := make([]byte, wire.MaskBytes(m))
		set := map[int]bool{0: true, m / 3: true, m / 2: true, m - 1: true}
		for v := range set {
			wire.SetVec(mask, v)
		}
		r := &maskReply{metrics: []uint64{7, 9}, masks: [][]byte{make([]byte, len(mask)), mask}}
		words := r.AppendVectors([]uint64{^uint64(0), 1, 2}, 9)
		if want := (m + 63) / 64; len(words) != want {
			t.Fatalf("m=%d: %d words, want %d", m, len(words), want)
		}
		for v := 0; v < len(words)*64; v++ {
			if got := words[v/64]>>(v%64)&1 == 1; got != set[v] {
				t.Errorf("m=%d: vector %d set=%v, want %v", m, v, got, set[v])
			}
		}
		if other := r.AppendVectors(words, 8); len(other) != 0 {
			t.Errorf("m=%d: unknown metric answered %v", m, other)
		}
	}
}

// TestErrnoTaxonomyMapping: one table over every failure class. For each
// dht sentinel, an error that wraps none, and nil: the class dht.ClassOf
// decides, the error frame's pinned byte, the sentinel the frame reads as
// at the requester (appendErr → replyErr), the trace name, and the
// netdht_out_errors_total label a transport failure of that class counts
// under. A class byte past dht.ClassOther, which a peer may send, decodes
// as an error that wraps no sentinel.
func TestErrnoTaxonomyMapping(t *testing.T) {
	reg := metrics.New()
	m := newPoolMetrics(reg)
	for _, tc := range []struct {
		err   error
		class dht.Class
		wire  byte
		trace string
		label string
	}{
		{dht.ErrNoRoute, dht.ClassNoRoute, 1, "no-route", "other"},
		{dht.ErrNodeDown, dht.ClassDown, 2, "down", "refused"},
		{dht.ErrTimeout, dht.ClassTimeout, 3, "timeout", "timeout"},
		{dht.ErrLost, dht.ClassLost, 4, "lost", "other"},
		{errors.New("foreign"), dht.ClassOther, 5, "other", "other"},
		{nil, dht.ClassNone, 0, "", "other"},
	} {
		c := dht.ClassOf(tc.err)
		if c != tc.class || byte(c) != tc.wire || c.String() != tc.trace {
			t.Errorf("%v: class %d %q, want %d %q on wire byte %d", tc.err, c, c, tc.class, tc.trace, tc.wire)
		}
		if got := encodeErr(c, 0, 0)[2]; got != tc.wire {
			t.Errorf("%v: error frame byte %d, want %d", tc.err, got, tc.wire)
		}
		got := replyErr(encodeErr(c, 0, 0))
		if sentinel := c.Err(); got == nil || (sentinel != nil && !errors.Is(got, sentinel)) ||
			(sentinel == nil && dht.ClassOf(got) != dht.ClassOther) {
			t.Errorf("%v: round trip read %v, want %v", tc.err, got, sentinel)
		}
		if tc.err == nil {
			continue
		}
		counter := reg.Counter("netdht_out_errors_total", "", metrics.L("class", tc.label))
		before := counter.Value()
		m.finishRPC(slotOther, 0, tc.err, m.rpcSeconds[slotOther].Start())
		if counter.Value() != before+1 {
			t.Errorf("%v: netdht_out_errors_total{class=%q} did not count it", tc.err, tc.label)
		}
	}
	if got := replyErr(encodeErr(9, 0, 0)); got == nil || dht.ClassOf(got) != dht.ClassOther {
		t.Errorf("unknown class byte 9 read as %v, want an error that wraps no sentinel", got)
	}
}

// TestClusterCrashRecovery: after a crash, stabilization over real
// sockets repairs the ring — every node's successor list is live-only
// and lookups from every origin reach the oracle owner.
func TestClusterCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	env := sim.NewEnv(2026)
	c := newTestCluster(t, env, 16)
	nodes := c.Nodes()
	victim := nodes[5]
	c.Crash(victim)
	settleCluster(t, c, env)

	for _, s := range c.Servers() {
		for _, ref := range s.Protocol().Neighbors().Succ {
			if ref.ID == victim.ID() {
				t.Fatalf("node %016x still lists crashed %016x as successor", s.ID(), victim.ID())
			}
		}
	}
	for i := 0; i < 64; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		src := c.RandomNode()
		rt, err := c.RouteFrom(src, k)
		if err != nil {
			t.Fatalf("post-crash lookup: %v", err)
		}
		want, _ := c.Owner(k)
		if rt.Node.ID() != want.ID() {
			t.Fatalf("post-crash lookup for %016x reached %016x, owner %016x", k, rt.Node.ID(), want.ID())
		}
	}
}
