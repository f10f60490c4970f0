// Package store implements the per-node DHS tuple store as an
// access-path-shaped index. The paper's data model is a flat set of
// <metric_id, vector_id, bit, time_out> tuples (§3.2); the operations
// the data plane actually performs against it are not flat at all:
//
//   - a counting probe asks "which vectors of metric μ have bit r set?"
//     once per still-unresolved metric per probed node — the single
//     hottest read in the system;
//   - an insertion sets (or refreshes) exactly one tuple;
//   - TTL garbage collection must find expired tuples without scanning
//     live ones (§3.3's implicit deletion is free on the wire; it should
//     be near-free on the CPU too).
//
// The index is therefore two-level: a map keyed by (metric, bit) whose
// leaf holds the vectors as a bitset of ⌈m/64⌉ words plus an optional
// per-vector expiry array, and a min-heap of (expiry, leaf, vector)
// entries so expiry sweeps touch only entries that are actually due.
// A probe reply is answered in O(m/64) word copies out of the leaf —
// independent of how many metrics, bits, or tuples the node carries —
// and, via AppendBitsWithBit, with zero heap allocations at steady
// state.
//
// The observable semantics are exactly the flat map's: Set refreshes in
// place, the read paths garbage-collect expired tuples on the way and
// report each sweep as one aggregate expire event, and a nil *Store
// answers probes like an empty one.
package store

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"dhsketch/internal/metrics"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
)

// TupleBytes is the wire size of one DHS tuple under the §5.1 size
// model: metric_id, vector_id, bit, and time_out packed into 64 bits.
const TupleBytes = 8

// forever is the expiry tick meaning "no expiry" (TTL 0).
const forever = math.MaxInt64

// Expiry is the soft-state rule (§3.3) both transports store tuples
// under: a tuple stored at tick now with a TTL of ttl ticks expires at
// now+ttl, and a TTL of 0 never expires.
func Expiry(now, ttl int64) int64 {
	if ttl == 0 {
		return forever
	}
	return now + ttl
}

// Key identifies one DHS bit: which metric, which bitmap vector, and
// which bit position. The on-the-wire form is the paper's
// <metric_id, vector_id, bit, time_out> tuple; time_out is the value,
// not part of the key.
type Key struct {
	Metric uint64
	Vector int32
	Bit    uint8
}

// leafKey addresses one leaf of the index: all vectors of one
// (metric, bit) pair. It is exactly the access path of a counting
// probe.
type leafKey struct {
	metric uint64
	bit    uint8
}

// leaf holds the vectors of one (metric, bit) pair as a bitset. exp is
// nil until a finite expiry is stored — the common TTL-0 case pays no
// per-vector expiry memory and no GC work at all. When non-nil, exp has
// 64 entries per bitset word; a set bit v is live at time now iff
// exp == nil or exp[v] >= now.
type leaf struct {
	bits []uint64
	exp  []int64
}

// grow extends the bitset (and the expiry array, if present) to cover
// word index w.
func (lf *leaf) grow(w int) {
	for len(lf.bits) <= w {
		lf.bits = append(lf.bits, 0)
	}
	if lf.exp != nil {
		lf.growExp()
	}
}

// growExp brings the expiry array to 64 slots per bitset word, filling
// new slots with forever (bits set before any finite expiry existed
// never expire). The array is sized once: growing it a slot at a time
// would leave a node, which may never collect, holding every smaller array
// it outgrew.
func (lf *leaf) growExp() {
	n := 64 * len(lf.bits)
	if len(lf.exp) >= n {
		return
	}
	exp := make([]int64, n)
	copy(exp, lf.exp)
	for i := len(lf.exp); i < n; i++ {
		exp[i] = forever
	}
	lf.exp = exp
}

// expiry returns the expiry tick of vector v (which must have its bit
// set).
func (lf *leaf) expiry(v int32) int64 {
	if lf.exp == nil {
		return forever
	}
	return lf.exp[v]
}

// expEntry is one pending expiry: vector v of leaf lf falls due at
// tick at. Entries are lazily invalidated — a refresh rewrites
// lf.exp[v], a sweep clears the bit — and skipped when popped stale, so
// neither path has to search the heap.
type expEntry struct {
	at int64
	lf *leaf
	v  int32
}

// valid reports whether the entry still speaks for its tuple: the bit is
// set and at is the expiry it carries now.
func (e expEntry) valid() bool {
	w := int(e.v) >> 6
	return w < len(e.lf.bits) && e.lf.bits[w]&(1<<(uint(e.v)&63)) != 0 && e.lf.exp != nil && e.lf.exp[e.v] == e.at
}

// expHeap is a min-heap of pending expiries ordered by due tick. The
// sift operations are hand-rolled rather than container/heap's: the
// interface-based API would box every entry on push, and Set is on the
// insertion hot path.
type expHeap []expEntry

// push adds an entry and restores the heap order.
func (h *expHeap) push(e expEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].at <= q[i].at {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

// pop removes and returns the entry with the smallest due tick.
func (h *expHeap) pop() expEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = expEntry{} // drop the leaf reference
	*h = q[:n]
	q[:n].siftDown(0)
	return top
}

// siftDown restores the heap order below position i.
func (h expHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].at < h[smallest].at {
			smallest = l
		}
		if r < n && h[r].at < h[smallest].at {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Store is the per-node DHS state: the set of bits this node is
// responsible for, each with its soft-state expiry time. A node stores
// at most one tuple per (metric, vector, bit); repeated insertions of
// items mapping to the same bit merely refresh the timestamp (§3.2).
//
// All methods are safe for concurrent use: probes garbage-collect
// expired tuples on the way, so even the read paths mutate the index
// and take the mutex. This is what lets any number of counting passes
// run against one overlay at once.
type Store struct {
	mu     sync.Mutex
	leaves map[leafKey]*leaf
	live   int     // live tuples, net of every completed sweep
	due    expHeap // pending finite expiries, lazily invalidated

	// owner and env are set by NewTraced so the garbage-collecting read
	// paths can report TTL expiry to the environment's tracer. Both stay
	// zero/nil for untraced stores.
	owner uint64
	env   *sim.Env

	// rt holds optional runtime counters (Instrument). The zero value —
	// all nil — is the metrics-off state: every update below is a method
	// call on a nil instrument, which costs one branch and zero
	// allocations (the BenchmarkProbeReply regression in store_test.go
	// pins this). The counters are clock-free atomics, so instrumented
	// simulation stores stay deterministic.
	rt Runtime
}

// Runtime is the store's runtime-metrics hookup: operational counters
// a deployment registry (internal/metrics) aggregates across the
// node's lifetime. Any field may be nil; the zero value disables
// everything.
type Runtime struct {
	// Sets counts Set calls (inserts and refreshes).
	Sets *metrics.Counter
	// Probes counts probe reads (AppendBitsWithBit).
	Probes *metrics.Counter
	// Sweeps counts expiry-heap sweep passes (Len, Keys, Entries, Bytes).
	Sweeps *metrics.Counter
	// Expired counts tuples deleted by TTL garbage collection, on every
	// GC path — heap sweeps and the collecting read paths alike.
	Expired *metrics.Counter
}

// New returns an empty, untraced store.
func New() *Store {
	return &Store{leaves: make(map[leafKey]*leaf)}
}

// NewTraced returns an empty store that reports its TTL expiry sweeps
// against the owning node's ID. The tracer is read from the environment
// at GC time, not captured at creation, so stores created before
// SetTracer still report.
func NewTraced(owner uint64, env *sim.Env) *Store {
	return &Store{leaves: make(map[leafKey]*leaf), owner: owner, env: env}
}

// Instrument attaches runtime counters to the store. Call before the
// store is shared across goroutines (the fields are read without
// synchronization on the hot paths, relying on the attach-then-share
// ordering the server's lazy store creation provides).
func (s *Store) Instrument(rt Runtime) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rt = rt
}

// expire reports one garbage-collection sweep that deleted n expired
// tuples as a single aggregate event: per-tuple emission would leak the
// sweep's internal visit order into the trace.
func (s *Store) expire(now int64, n int) {
	if n == 0 {
		return
	}
	s.rt.Expired.Add(uint64(n))
	if s.env == nil {
		return
	}
	t := s.env.Tracer()
	if t == nil {
		return
	}
	t.Event(obs.Event{Tick: now, Kind: obs.KindExpire, Node: s.owner, Bit: -1, Arg: int64(n)})
}

// leafOf returns the leaf for (metric, bit), creating it on first use.
func (s *Store) leafOf(metric uint64, bit uint8) *leaf {
	lk := leafKey{metric: metric, bit: bit}
	lf := s.leaves[lk]
	if lf == nil {
		lf = &leaf{}
		s.leaves[lk] = lf
	}
	return lf
}

// heapSlack is how far past twice the live tuples the expiry heap may grow
// before Set compacts it.
const heapSlack = 64

// Set records (or refreshes) one bit with the given expiry tick. A finite
// expiry has one entry in the expiry heap; a refresh to another tick leaves
// the old entry behind, stale, and when the heap passes 2·live + heapSlack
// the stale ones are dropped — so after any Set the heap is bounded by the
// tuples the store holds, not by how often they were refreshed.
func (s *Store) Set(k Key, expiry int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rt.Sets.Inc()
	lf := s.leafOf(k.Metric, k.Bit)
	w := int(k.Vector) >> 6
	mask := uint64(1) << (uint(k.Vector) & 63)
	lf.grow(w)
	held := lf.bits[w]&mask != 0
	if !held {
		lf.bits[w] |= mask
		s.live++
	}
	if expiry == forever {
		if lf.exp != nil {
			lf.exp[k.Vector] = forever
		}
		return
	}
	if lf.exp == nil {
		lf.growExp()
	}
	if held && lf.exp[k.Vector] == expiry {
		return // the entry that set this expiry is still in the heap
	}
	lf.exp[k.Vector] = expiry
	s.due.push(expEntry{at: expiry, lf: lf, v: k.Vector})
	if len(s.due) > 2*s.live+heapSlack {
		s.compact()
	}
}

// compact filters the expiry heap in place to one valid entry per tuple and
// re-heapifies: at most live entries remain, so between two compactions lie
// more pushes than the second one visits. A kept entry's bit is held out of
// its leaf for the length of the pass, which makes a second valid entry for
// the same tuple (set, collected by a read path, set again with the same
// expiry) read as stale.
func (s *Store) compact() {
	kept := s.due[:0]
	for _, e := range s.due {
		if e.valid() {
			e.lf.bits[e.v>>6] &^= 1 << (uint(e.v) & 63)
			kept = append(kept, e)
		}
	}
	clear(s.due[len(kept):]) // drop the leaf references
	for _, e := range kept {
		e.lf.bits[e.v>>6] |= 1 << (uint(e.v) & 63)
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
	s.due = kept
}

// Has reports whether the bit is present and unexpired at time now.
// Expired tuples are garbage-collected on the way (implicit deletion,
// §3.3: "deleting an item incurs no extra cost").
func (s *Store) Has(k Key, now int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	lf := s.leaves[leafKey{metric: k.Metric, bit: k.Bit}]
	if lf == nil {
		return false
	}
	w := int(k.Vector) >> 6
	mask := uint64(1) << (uint(k.Vector) & 63)
	if w >= len(lf.bits) || lf.bits[w]&mask == 0 {
		return false
	}
	if lf.expiry(k.Vector) < now {
		lf.bits[w] &^= mask
		s.live--
		s.expire(now, 1)
		return false
	}
	return true
}

// AppendBitsWithBit answers a counting probe for (metric, bit) by
// appending the leaf's bitset words to dst — bit v of word ⌊v/64⌋ set
// iff vector v's bit is present and live at time now — and returns the
// extended slice. It writes into dst's existing capacity, so a caller
// reusing a scratch buffer pays zero heap allocations at steady state.
// Expired tuples of this (metric, bit) pair are garbage-collected on
// the way. A nil receiver answers like an empty store, so probe paths can
// use it without a guard.
func (s *Store) AppendBitsWithBit(dst []uint64, metric uint64, bit uint8, now int64) []uint64 {
	dst = dst[:0]
	if s == nil {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rt.Probes.Inc()
	lf := s.leaves[leafKey{metric: metric, bit: bit}]
	if lf == nil {
		return dst
	}
	if lf.exp == nil {
		return append(dst, lf.bits...)
	}
	expired := 0
	for wi, w := range lf.bits {
		for t := w; t != 0; t &= t - 1 {
			v := wi<<6 + bits.TrailingZeros64(t)
			if lf.exp[v] < now {
				w &^= 1 << uint(v&63)
				expired++
			}
		}
		lf.bits[wi] = w
		dst = append(dst, w)
	}
	s.live -= expired
	s.expire(now, expired)
	return dst
}

// Entry is one live tuple together with its expiry tick — the unit of
// replica repair. Repair must re-place a tuple with its original
// soft-state deadline: extending the TTL on copy would let a tuple
// outlive its item's refresh cycle just because the ring churned.
type Entry struct {
	Key    Key
	Expiry int64
}

// Entries returns the live tuples at time now with their expiry ticks,
// in deterministic (metric, bit, vector) order, garbage-collecting
// expired ones on the way.
func (s *Store) Entries(now int64) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire(now, s.sweep(now))
	lks := make([]leafKey, 0, len(s.leaves))
	for lk := range s.leaves {
		lks = append(lks, lk)
	}
	sort.Slice(lks, func(i, j int) bool {
		if lks[i].metric != lks[j].metric {
			return lks[i].metric < lks[j].metric
		}
		return lks[i].bit < lks[j].bit
	})
	out := make([]Entry, 0, s.live)
	for _, lk := range lks {
		lf := s.leaves[lk]
		for wi, w := range lf.bits {
			for ; w != 0; w &= w - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(w))
				out = append(out, Entry{
					Key:    Key{Metric: lk.metric, Vector: v, Bit: lk.bit},
					Expiry: lf.expiry(v),
				})
			}
		}
	}
	return out
}

// sweep garbage-collects every tuple expired at time now by draining
// the due heap, and returns how many it deleted. Stale entries —
// refreshed to a later tick or already collected by a read path — cost
// one pop each and delete nothing.
func (s *Store) sweep(now int64) int {
	s.rt.Sweeps.Inc()
	expired := 0
	for len(s.due) > 0 && s.due[0].at < now {
		if e := s.due.pop(); e.valid() {
			e.lf.bits[e.v>>6] &^= 1 << (uint(e.v) & 63)
			expired++
		}
	}
	s.live -= expired
	return expired
}

// Len returns the number of live tuples at time now, garbage-collecting
// expired ones.
func (s *Store) Len(now int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire(now, s.sweep(now))
	return s.live
}

// Bytes returns the storage footprint of the live tuples at time now in
// wire-model bytes.
func (s *Store) Bytes(now int64) int64 {
	return int64(s.Len(now)) * TupleBytes
}

// Keys returns the keys of Entries — the enumeration tests use to
// compare whole-overlay placements.
func (s *Store) Keys(now int64) []Key {
	es := s.Entries(now)
	out := make([]Key, len(es))
	for i, e := range es {
		out[i] = e.Key
	}
	return out
}
