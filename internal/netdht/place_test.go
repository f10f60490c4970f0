package netdht

import (
	"math/rand/v2"
	"sync"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/wire"
)

// TestInsertRetriesAtFreshTarget: the entry refuses the first routed store
// with a typed errnoNodeDown and acks the second. Insert succeeds, as the
// simulator's insert does: the failed store is re-sent once, after one
// backoff, for the next target of the client's stream — not for the same
// one — and the retry is counted.
func TestInsertRetriesAtFreshTarget(t *testing.T) {
	const seed, metric, item = 17, 3, 0x9e3779b97f4a7c15
	var mu sync.Mutex
	var keys []uint64
	entry := fakePeer(t, func(_ string, req []byte) []byte {
		m, err := decodeFindSucc(req)
		if err != nil || m.store == nil {
			t.Errorf("entry got %x (%v), want a routed store", req, err)
			return encodeErr(errnoBad, 0, 0)
		}
		mu.Lock()
		defer mu.Unlock()
		keys = append(keys, m.key)
		if len(keys) == 1 {
			return encodeErr(errnoNodeDown, 0, 0)
		}
		return encodeStoreAck(chord.Found{})
	})
	c, reg := storeClient(t, entry, seed)
	if err := c.Insert(metric, item); err != nil {
		t.Fatalf("Insert after one refused store: %v", err)
	}

	replay := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908))
	_, bit := c.geom.Split(item)
	want := []uint64{c.geom.Target(replay, bit), c.geom.Target(replay, bit)}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Errorf("stores sent for %016x, want the stream's next two targets %016x", keys, want)
	}
	if _, retries := insertErrors(reg); retries != 1 {
		t.Errorf("netdht_retries_total = %d, want 1", retries)
	}
}

// TestPlaceBatchOverWire: the insertion rule handed a batch sends one routed
// store per bit position — a wire.BulkInsert frame where the position has
// several vectors — and every tuple of the batch lands.
func TestPlaceBatchOverWire(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	c, reg := storeClient(t, s.Addr(), 1)

	const metric = 8
	items := make([]uint64, 300)
	positions := map[uint]bool{}
	tuples := map[wire.Insert]bool{}
	for i := range items {
		items[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		vector, bit := c.geom.Split(items[i])
		positions[bit] = true
		tuples[wire.Insert{Metric: metric, Vector: uint16(vector), Bit: uint8(bit)}] = true
	}
	if err := c.geom.Place((*wirePlacer)(c), c.rng, metric, items, 0); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got := outRPCs(reg, "insert"); got != uint64(len(positions)) {
		t.Errorf("%d routed stores for %d bit positions", got, len(positions))
	}
	if st := s.Status(); st.StoreOps != int64(len(positions)) {
		t.Errorf("store_ops = %d, want one per position (%d)", st.StoreOps, len(positions))
	}
	for tuple := range tuples {
		if !tupleAt(s, tuple) {
			t.Errorf("tuple %+v of the batch is not stored", tuple)
		}
	}
	if st := s.Status(); st.StoreTuples != len(tuples) {
		t.Errorf("server holds %d tuples, want the batch's %d", st.StoreTuples, len(tuples))
	}
}
