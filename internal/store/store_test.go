package store

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"dhsketch/internal/metrics"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
)

// refStore is the flat-map reference model the indexed store must stay
// observably equivalent to: one expiry tick per tuple, refresh in place,
// implicit deletion on read. Every read mirrors the indexed store's GC
// scope so the two models prune identically even under non-monotonic
// query times.
type refStore map[Key]int64

func (r refStore) set(k Key, expiry int64) { r[k] = expiry }

func (r refStore) has(k Key, now int64) bool {
	exp, ok := r[k]
	if !ok {
		return false
	}
	if exp < now {
		delete(r, k)
		return false
	}
	return true
}

func (r refStore) vectorsWithBit(metric uint64, bit uint8, now int64) []int32 {
	var out []int32
	for k, exp := range r {
		if k.Metric != metric || k.Bit != bit {
			continue
		}
		if exp < now {
			delete(r, k)
			continue
		}
		out = append(out, k.Vector)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r refStore) len_(now int64) int {
	for k, exp := range r {
		if exp < now {
			delete(r, k)
		}
	}
	return len(r)
}

func (r refStore) keys(now int64) []Key {
	r.len_(now)
	out := make([]Key, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Bit != b.Bit {
			return a.Bit < b.Bit
		}
		return a.Vector < b.Vector
	})
	return out
}

func equalVectors(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstReferenceMap drives the indexed store and the
// flat-map reference through the same long random operation sequence —
// sets with mixed finite/forever expiries, refreshes, reads at a
// drifting clock — and demands identical observable behavior at every
// step.
func TestDifferentialAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	s := New()
	ref := refStore{}
	now := int64(0)

	randKey := func() Key {
		return Key{
			Metric: rng.Uint64N(4),
			Vector: int32(rng.IntN(130)), // spans >2 bitset words
			Bit:    uint8(rng.IntN(6)),
		}
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.IntN(10); {
		case op < 4: // set / refresh
			k := randKey()
			exp := now + int64(rng.IntN(60))
			if rng.IntN(5) == 0 {
				exp = math.MaxInt64 // TTL 0: never expires
			}
			s.Set(k, exp)
			ref.set(k, exp)
		case op < 7: // point lookup
			k := randKey()
			if got, want := s.Has(k, now), ref.has(k, now); got != want {
				t.Fatalf("step %d: Has(%v, %d) = %v, want %v", step, k, now, got, want)
			}
		case op < 9: // probe reply
			m, b := rng.Uint64N(4), uint8(rng.IntN(6))
			got := s.VectorsWithBit(m, b, now)
			want := ref.vectorsWithBit(m, b, now)
			if !equalVectors(got, want) {
				t.Fatalf("step %d: VectorsWithBit(%d, %d, %d) = %v, want %v", step, m, b, now, got, want)
			}
		default: // full sweep
			if got, want := s.Len(now), ref.len_(now); got != want {
				t.Fatalf("step %d: Len(%d) = %d, want %d", step, now, got, want)
			}
		}
		if rng.IntN(3) == 0 {
			now += int64(rng.IntN(8))
		}
	}

	// Final whole-store enumeration must agree exactly.
	got, want := s.Keys(now), ref.keys(now)
	if len(got) != len(want) {
		t.Fatalf("Keys: %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s.Bytes(now) != int64(len(want))*TupleBytes {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(now), int64(len(want))*TupleBytes)
	}
}

// TestConcurrentProbesAndInserts exercises the store the way the
// simulation does — concurrent counting passes probing while insertions
// refresh tuples — and relies on the race detector (make verify runs the
// suite under -race) to catch unsynchronized access. Each prober owns
// its scratch buffer, mirroring metricState.scratch.
func TestConcurrentProbesAndInserts(t *testing.T) {
	s := New()
	for m := uint64(0); m < 4; m++ {
		for v := int32(0); v < 64; v++ {
			s.Set(Key{Metric: m, Vector: v, Bit: uint8(v % 8)}, int64(50+v))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 3))
			scratch := make([]uint64, 0, 2)
			for i := 0; i < 2000; i++ {
				m := rng.Uint64N(4)
				b := uint8(rng.IntN(8))
				now := int64(rng.IntN(120))
				if g%2 == 0 {
					scratch = s.AppendBitsWithBit(scratch, m, b, now)
					s.Has(Key{Metric: m, Vector: int32(rng.IntN(64)), Bit: b}, now)
					s.Len(now)
				} else {
					s.Set(Key{Metric: m, Vector: int32(rng.IntN(64)), Bit: b}, now+int64(rng.IntN(50)))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNilStoreAnswersEmpty covers the probe path's no-guard contract.
func TestExpiry(t *testing.T) {
	if Expiry(100, 0) != math.MaxInt64 {
		t.Error("TTL 0 should never expire")
	}
	if Expiry(100, 50) != 150 {
		t.Errorf("Expiry(100,50) = %d", Expiry(100, 50))
	}
}

func TestNilStoreAnswersEmpty(t *testing.T) {
	var s *Store
	if got := s.AppendBitsWithBit(nil, 1, 2, 3); len(got) != 0 {
		t.Errorf("nil store AppendBitsWithBit = %v", got)
	}
	if got := s.VectorsWithBit(1, 2, 3); got != nil {
		t.Errorf("nil store VectorsWithBit = %v", got)
	}
}

// TestExpireEventsAggregate checks that the garbage-collecting read
// paths report each sweep as ONE aggregate KindExpire event carrying the
// deleted-tuple count — per-tuple events would leak sweep visit order
// into the trace and break byte-identical replay.
func TestExpireEventsAggregate(t *testing.T) {
	env := sim.NewEnv(1)
	rec := obs.NewRing(16)
	env.SetTracer(rec)
	s := NewTraced(42, env)
	for v := int32(0); v < 5; v++ {
		s.Set(Key{Metric: 1, Vector: v, Bit: 2}, 10)
	}
	s.Set(Key{Metric: 1, Vector: 9, Bit: 2}, 99)

	// One probe reply at now=50 expires the five v<5 tuples in one sweep.
	if got := s.VectorsWithBit(1, 2, 50); !equalVectors(got, []int32{9}) {
		t.Fatalf("VectorsWithBit = %v, want [9]", got)
	}
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d expire events, want 1 aggregate: %v", len(evs), evs)
	}
	e := evs[0]
	if e.Kind != obs.KindExpire || e.Node != 42 || e.Bit != -1 || e.Arg != 5 {
		t.Fatalf("aggregate expire event = %+v", e)
	}

	// A sweep that deletes nothing must not emit an event.
	s.Len(50)
	if got := len(rec.Events()); got != 1 {
		t.Fatalf("empty sweep emitted an event (total %d)", got)
	}
}

// TestRefreshInvalidatesHeapEntry pins the lazy-invalidation contract:
// a refresh to a later expiry leaves the old heap entry behind, and the
// sweep must skip it instead of deleting the live tuple.
func TestRefreshInvalidatesHeapEntry(t *testing.T) {
	s := New()
	k := Key{Metric: 3, Vector: 7, Bit: 1}
	s.Set(k, 10)
	s.Set(k, 100) // refresh: stale heap entry at tick 10 remains
	if s.Len(50) != 1 {
		t.Fatal("sweep honored a stale heap entry and deleted a refreshed tuple")
	}
	if !s.Has(k, 50) {
		t.Fatal("refreshed tuple lost")
	}
	// Downgrade back to forever; the finite entry must go stale too.
	s.Set(k, math.MaxInt64)
	if s.Len(200) != 1 || !s.Has(k, 200) {
		t.Fatal("forever refresh did not survive the old finite expiry")
	}
}

// TestExpiryHeapBounded: the expiry heap follows the tuples held, not the
// refreshes made. A million refreshes of a thousand TTL'd tuples over a
// thousand ticks — each tick a random thousand, so that some tuples miss
// their refresh, expire and come back — leave the heap within its bound
// after every Set, and the store holds, tick for tick, the tuples the
// flat-map reference holds: the same ones expire at the same ticks.
func TestExpiryHeapBounded(t *testing.T) {
	const tuples, ticks = 1000, 1000
	rng := rand.New(rand.NewPCG(5, 13))
	s := New()
	ref := refStore{}
	key := func(i int) Key { return Key{Metric: uint64(i % 8), Vector: int32(i / 8 % 64), Bit: uint8(i / 512)} }
	peak, expired := 0, 0
	for now := int64(0); now < ticks; now++ {
		for i := 0; i < tuples; i++ {
			k, exp := key(rng.IntN(tuples)), now+2+int64(rng.IntN(4))
			s.Set(k, exp)
			ref.set(k, exp)
			if bound := 2*s.live + heapSlack; len(s.due) > bound {
				t.Fatalf("tick %d: heap holds %d entries for %d live tuples, bound %d", now, len(s.due), s.live, bound)
			}
			peak = max(peak, len(s.due))
		}
		before := len(ref)
		got, want := s.Keys(now), ref.keys(now)
		expired += before - len(want)
		if len(got) != len(want) {
			t.Fatalf("tick %d: %d tuples live, reference holds %d", now, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tick %d: Keys[%d] = %v, reference %v", now, i, got[i], want[i])
			}
		}
	}
	if expired < ticks {
		t.Errorf("test premise broken: only %d expiries in %d ticks", expired, ticks)
	}
	t.Logf("%d refreshes, %d expiries, heap peak %d entries", tuples*ticks, expired, peak)
}

// BenchmarkStoreSetRefresh is the write-side companion of
// BenchmarkProbeReply: Set of a tuple the store holds, with a TTL, at the
// rate of a refresh regime — a thousand refreshes to a tick, so most find
// their tuple at an earlier tick's expiry and push a heap entry. The heap
// must stay as long as the tuples are many (heap-entries/live ≤ 2 and a
// constant), and the refresh must not allocate once it has.
func BenchmarkStoreSetRefresh(b *testing.B) {
	const tuples, ttl = 4096, 1200
	s := New()
	keys := make([]Key, tuples)
	for i := range keys {
		keys[i] = Key{Metric: uint64(i % 8), Vector: int32(i / 8 % 64), Bit: uint8(i / 512)}
		s.Set(keys[i], ttl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(keys[(i*2654435761)%tuples], int64(ttl+1+i/1000))
	}
	b.StopTimer()
	b.ReportMetric(float64(len(s.due))/float64(s.live), "heap-entries/live")
}

// BenchmarkProbeReply measures the counting probe's read path on a node
// populated like one member of a busy 1024-node ring (8 metrics, ~40
// tuples each). AppendBitsWithBit into a reused scratch buffer is the
// hot-path variant and must not allocate.
func BenchmarkProbeReply(b *testing.B) {
	s := New()
	for m := uint64(0); m < 8; m++ {
		for i := 0; i < 40; i++ {
			s.Set(Key{Metric: m, Vector: int32(i % 64), Bit: uint8(i % 16)}, 1<<60)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	scratch := make([]uint64, 0, 1)
	for i := 0; i < b.N; i++ {
		scratch = s.AppendBitsWithBit(scratch, 3, uint8(i%16), 100)
		for _, w := range scratch {
			sink += int(w & 1)
		}
	}
	_ = sink
}

// TestProbeReplyZeroAllocWithNilRuntime is the regression companion of
// BenchmarkProbeReply for the runtime-metrics hookup (DESIGN.md §15):
// an uninstrumented store — nil registry, so every Runtime counter is
// nil — must keep the probe read path at exactly zero heap allocations.
// The nil-receiver counter calls cost one branch each and nothing else.
func TestProbeReplyZeroAllocWithNilRuntime(t *testing.T) {
	s := New()
	s.Instrument(Runtime{}) // explicit metrics-off state
	for m := uint64(0); m < 8; m++ {
		for i := 0; i < 40; i++ {
			s.Set(Key{Metric: m, Vector: int32(i % 64), Bit: uint8(i % 16)}, 1<<60)
		}
	}
	scratch := make([]uint64, 0, 1)
	var sink int
	n := testing.AllocsPerRun(200, func() {
		scratch = s.AppendBitsWithBit(scratch, 3, 5, 100)
		for _, w := range scratch {
			sink += int(w & 1)
		}
	})
	_ = sink
	if n != 0 {
		t.Errorf("probe reply with nil runtime counters allocated %.1f/op, want 0", n)
	}
}

// TestRuntimeCounters exercises the instrumented paths end to end: sets,
// probe reads, sweep passes, and expiry accounting across both GC
// paths (heap sweep and collecting probe read).
func TestRuntimeCounters(t *testing.T) {
	r := metrics.New()
	rt := Runtime{
		Sets:    r.Counter("sets", ""),
		Probes:  r.Counter("probes", ""),
		Sweeps:  r.Counter("sweeps", ""),
		Expired: r.Counter("expired", ""),
	}
	s := New()
	s.Instrument(rt)

	s.Set(Key{Metric: 1, Vector: 0, Bit: 0}, 10) // expires at 10
	s.Set(Key{Metric: 1, Vector: 1, Bit: 0}, forever)
	s.Set(Key{Metric: 1, Vector: 1, Bit: 0}, forever) // refresh counts too
	if got := rt.Sets.Value(); got != 3 {
		t.Errorf("Sets = %d, want 3", got)
	}

	// Probe read at now=50 garbage-collects the expired vector 0.
	if vs := s.VectorsWithBit(1, 0, 50); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("VectorsWithBit = %v, want [1]", vs)
	}
	if got := rt.Probes.Value(); got != 1 {
		t.Errorf("Probes = %d, want 1", got)
	}
	if got := rt.Expired.Value(); got != 1 {
		t.Errorf("Expired after probe GC = %d, want 1", got)
	}

	// A heap sweep pass: Len drains the due heap.
	s.Set(Key{Metric: 2, Vector: 3, Bit: 1}, 60)
	if n := s.Len(100); n != 1 {
		t.Fatalf("Len(100) = %d, want 1", n)
	}
	if got := rt.Sweeps.Value(); got != 1 {
		t.Errorf("Sweeps = %d, want 1", got)
	}
	if got := rt.Expired.Value(); got != 2 {
		t.Errorf("Expired after sweep = %d, want 2", got)
	}
}

// VectorsWithBit is the probe answer as a list of vector indices, ascending
// — what the store offered before every reader took AppendBitsWithBit's
// words; the tests keep it as the readable form to compare against.
func (s *Store) VectorsWithBit(metric uint64, bit uint8, now int64) []int32 {
	var out []int32
	for wi, w := range s.AppendBitsWithBit(nil, metric, bit, now) {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}
