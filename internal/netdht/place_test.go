package netdht

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// TestInsertRetriesAtFreshTarget: the entry refuses the first routed store
// with a typed dht.ClassDown and acks the second. Insert succeeds, as the
// simulator's insert does: the failed store is re-sent once, after one
// backoff, for the next target of the item's stream — not for the same
// one — and the retry is counted.
func TestInsertRetriesAtFreshTarget(t *testing.T) {
	const seed, metric, item = 17, 3, 0x9e3779b97f4a7c15
	var mu sync.Mutex
	var keys []uint64
	entry := fakePeer(t, func(_ string, req []byte) []byte {
		m, err := decodeFindSucc(req, nil)
		if err != nil || !m.isStore() {
			t.Errorf("entry got %x (%v), want a routed store", req, err)
			return encodeErr(dht.ClassOther, 0, 0)
		}
		mu.Lock()
		defer mu.Unlock()
		keys = append(keys, m.key)
		if len(keys) == 1 {
			return encodeErr(dht.ClassDown, 0, 0)
		}
		return encodeStoreAck(chord.Found{})
	})
	c, reg := storeClient(t, entry, seed)
	if err := c.Insert(metric, item); err != nil {
		t.Fatalf("Insert after one refused store: %v", err)
	}

	replay := replayInsert(seed, metric, item)
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

// TestConcurrentInsertsPlaceAlike: what a client leaves in the ring is a
// function of its seed and the items, not of how the goroutines inserting
// through it interleave. Two rings built alike take the same items, one from
// a single goroutine, one from two sharing the client: every tuple is on the
// owner of its item's first target in both, each server holds as many tuples
// in both, and a fresh client of one seed counts both for the same estimates
// at the same probe exchanges a scan.
func TestConcurrentInsertsPlaceAlike(t *testing.T) {
	const seed, metrics, items = 5, 8, 300
	type loaded struct {
		tuples []int      // per server, in ID order
		probes []uint64   // per scan
		counts [][]uint64 // per scan, the estimates' bits
	}
	load := func(goroutines int) loaded {
		env := sim.NewEnv(41)
		cl := newTestCluster(t, env, 8)
		settleCluster(t, cl, env)
		servers := cl.Servers()
		c, _ := storeClient(t, servers[0].Addr(), seed)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := g; m < metrics; m += goroutines {
					for i := 0; i < items; i++ {
						if err := c.Insert(uint64(100+m), uint64(i)*0x9e3779b97f4a7c15+uint64(m)); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()

		var out loaded
		ids := make([]uint64, metrics)
		for m := range ids {
			ids[m] = uint64(100 + m)
			for i := 0; i < items; i++ {
				item := uint64(i)*0x9e3779b97f4a7c15 + uint64(m)
				vector, bit := c.geom.Split(item)
				if !c.geom.Stored(bit) {
					continue
				}
				owner, err := cl.Owner(c.geom.Target(replayInsert(seed, ids[m], item), bit))
				if err != nil {
					t.Fatalf("Owner: %v", err)
				}
				srv, _ := cl.ByID(owner.ID())
				if tuple := (wire.Insert{Metric: ids[m], Vector: uint16(vector), Bit: uint8(bit)}); !tupleAt(srv, tuple) {
					t.Fatalf("%d goroutines: tuple %+v is not on %016x, the owner of its item's first target", goroutines, tuple, owner.ID())
				}
			}
		}
		for _, s := range servers {
			st, _ := s.App().(*store.Store)
			out.tuples = append(out.tuples, st.Len(s.nowFn()))
		}
		reader, reg := storeClient(t, servers[0].Addr(), 9)
		for range 4 {
			before := outRPCs(reg, "probe")
			res, err := reader.CountAll(nil, ids)
			if err != nil {
				t.Fatalf("CountAll: %v", err)
			}
			out.probes = append(out.probes, outRPCs(reg, "probe")-before)
			bits := make([]uint64, len(res))
			for i, r := range res {
				bits[i] = math.Float64bits(r.Estimate)
			}
			out.counts = append(out.counts, bits)
		}
		return out
	}
	one, two := load(1), load(2)
	if !reflect.DeepEqual(one, two) {
		t.Errorf("loaded by one goroutine: %+v\nby two: %+v", one, two)
	}
}
