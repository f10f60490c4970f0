package serve_test

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
)

// Tests for the cohort refresh: which cached metrics ride the fan-out a
// miss starts, on a fake clock, against a counter that records every
// CountAll it is handed.

const ttl = time.Second

// scanned is one CountAll the fake served: when, and for which metrics.
type scanned struct {
	at      time.Duration // since the clock's start
	metrics []uint64
}

// batchFake is a Counter with CountAll. An estimate encodes its metric and
// the instant of its scan, so a served answer says how old it is.
type batchFake struct {
	clk   *manualClock
	start time.Time
	gate  chan struct{} // when set, a scan waits for it

	mu    sync.Mutex
	calls []scanned
	err   error
}

func newBatchFake(clk *manualClock) *batchFake { return &batchFake{clk: clk, start: clk.now()} }

func (b *batchFake) answer(metric uint64) netdht.CountResult {
	return netdht.CountResult{Estimate: float64(metric), Quality: core.Quality{ProbesAttempted: int(b.clk.now().Sub(b.start) / time.Millisecond)}}
}

func (b *batchFake) Count(metric uint64) (netdht.CountResult, error) {
	res, err := b.CountAll(nil, []uint64{metric})
	if err != nil {
		return netdht.CountResult{}, err
	}
	return res[0], nil
}

func (b *batchFake) CountAll(dst []netdht.CountResult, ms []uint64) ([]netdht.CountResult, error) {
	b.mu.Lock()
	b.calls = append(b.calls, scanned{b.clk.now().Sub(b.start), append([]uint64(nil), ms...)})
	err := b.err
	b.mu.Unlock()
	if b.gate != nil {
		<-b.gate
	}
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		dst = append(dst, b.answer(m))
	}
	return dst, nil
}

func (b *batchFake) scans() []scanned {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]scanned(nil), b.calls...)
}

func (b *batchFake) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
}

// countOnly hides a batchFake's CountAll: a Counter and nothing more.
type countOnly struct{ b *batchFake }

func (c countOnly) Count(metric uint64) (netdht.CountResult, error) { return c.b.Count(metric) }

// sorted is ms in increasing order, for comparing a scan's metrics as a set.
func sorted(ms []uint64) []uint64 {
	out := slices.Clone(ms)
	slices.Sort(out)
	return out
}

func mustCount(t *testing.T, f *serve.Frontend, metric uint64) serve.Result {
	t.Helper()
	r, err := f.Count(metric)
	if err != nil {
		t.Fatalf("Count(%d): %v", metric, err)
	}
	return r
}

// demand asks f for every metric that is in demand at each tick of step, for
// span: from[m] is when demand for m starts.
func demand(t *testing.T, f *serve.Frontend, clk *manualClock, from map[uint64]time.Duration, step, span time.Duration) []serve.Result {
	t.Helper()
	var served []serve.Result
	for at := time.Duration(0); at < span; at += step {
		for _, m := range sorted(keys(from)) {
			if at >= from[m] {
				served = append(served, mustCount(t, f, m))
			}
		}
		clk.advance(step)
	}
	return served
}

func keys(m map[uint64]time.Duration) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCohortsMerge: two metrics in demand whose first fills were d apart are
// refreshed by one scan per TTL from at most a TTL after the later fill —
// for d below half the TTL and above it.
func TestCohortsMerge(t *testing.T) {
	for _, d := range []time.Duration{3 * ttl / 10, 7 * ttl / 10} {
		t.Run(d.String(), func(t *testing.T) {
			clk := &manualClock{t: time.Unix(1000, 0)}
			fake := newBatchFake(clk)
			reg := metrics.New()
			f := serve.New(fake, serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now, Metrics: reg})
			demand(t, f, clk, map[uint64]time.Duration{1: 0, 2: d}, 50*time.Millisecond, 6*ttl)

			var late []scanned
			total := 0
			for _, s := range fake.scans() {
				total += len(s.metrics)
				if s.at >= d+ttl {
					late = append(late, s)
				}
			}
			if len(late) < 4 {
				t.Fatalf("%d scans from %v on: %+v", len(late), d+ttl, fake.scans())
			}
			for i, s := range late {
				if !reflect.DeepEqual(sorted(s.metrics), []uint64{1, 2}) {
					t.Errorf("scan at %v is for %v, want both metrics", s.at, s.metrics)
				}
				if i > 0 && s.at-late[i-1].at != ttl {
					t.Errorf("scans at %v and %v, want one per TTL", late[i-1].at, s.at)
				}
			}
			if got := counterValue(t, reg, "dhsd_fanout_metrics_total"); got != uint64(total) {
				t.Errorf("dhsd_fanout_metrics_total = %d, the counter scanned %d", got, total)
			}
			if got := reg.Histogram("dhsd_fanout_seconds", "", metrics.DefLatencyBuckets).Count(); got != uint64(len(fake.scans())) {
				t.Errorf("dhsd_fanout_seconds_count = %d over %d scans", got, len(fake.scans()))
			}
		})
	}
}

// TestUnservedEntryDoesNotRide: an entry nobody was served from stays out of
// other metrics' fan-outs, and once it has expired the next miss evicts it.
func TestUnservedEntryDoesNotRide(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	fake := newBatchFake(clk)
	f := serve.New(fake, serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now})

	mustCount(t, f, 1) // filled, never hit
	clk.advance(6 * ttl / 10)
	mustCount(t, f, 2) // 1 is old enough to ride, and not in demand
	if f.CacheLen() != 2 {
		t.Errorf("cache holds %d entries, want both", f.CacheLen())
	}
	clk.advance(5 * ttl / 10)
	mustCount(t, f, 3) // 1 has expired unserved: gone; 2 stays
	if f.CacheLen() != 2 {
		t.Errorf("cache holds %d entries after the expired one's eviction, want 2", f.CacheLen())
	}
	for _, s := range fake.scans() {
		if len(s.metrics) != 1 {
			t.Errorf("scan at %v is for %v; nothing was in demand", s.at, s.metrics)
		}
	}
	if r := mustCount(t, f, 2); r.Source != serve.SourceCache {
		t.Errorf("metric 2 = %s, want its entry kept", r.Source)
	}
	if r := mustCount(t, f, 1); r.Source != serve.SourceDirect {
		t.Errorf("metric 1 = %s, want a fresh fan-out", r.Source)
	}
}

// TestColdMetricNeverRides: a metric asked for less than once per TTL is
// never served from the cache, so no other metric's miss refreshes it —
// though its own miss refreshes the hot metrics that are due.
func TestColdMetricNeverRides(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	fake := newBatchFake(clk)
	f := serve.New(fake, serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now})
	const hot, cold = 1, 9
	for at := time.Duration(0); at < 12*ttl; at += 100 * time.Millisecond {
		mustCount(t, f, hot)
		if at%(3*ttl/2) == 0 {
			if r := mustCount(t, f, cold); r.Source != serve.SourceDirect {
				t.Errorf("cold metric at %v = %s", at, r.Source)
			}
		}
		clk.advance(100 * time.Millisecond)
	}
	rode := false
	for _, s := range fake.scans() {
		for i, m := range s.metrics {
			if m == cold && i > 0 {
				t.Errorf("scan at %v refreshed the cold metric: %v", s.at, s.metrics)
			}
			rode = rode || m == hot && i > 0
		}
	}
	if !rode {
		t.Errorf("the hot metric never rode the cold one's miss: %+v", fake.scans())
	}
}

// TestNothingStaleServedRandomSchedule: whatever rides whatever, an answer
// older than the TTL is never served. The estimate carries the instant of
// its scan, so the check does not rest on the age the frontend reports.
func TestNothingStaleServedRandomSchedule(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	fake := newBatchFake(clk)
	f := serve.New(fake, serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now})
	rng := rand.New(rand.NewPCG(23, 1))
	zipf := rand.NewZipf(rng, 1.2, 1, 11)
	hits := 0
	for i := 0; i < 20000; i++ {
		m := zipf.Uint64()
		r := mustCount(t, f, m)
		age := clk.now().Sub(fake.start) - time.Duration(r.ProbesAttempted)*time.Millisecond
		if r.Estimate != float64(m) || age >= ttl || r.Age >= ttl {
			t.Fatalf("op %d: metric %d served %+v, scanned %v ago", i, m, r, age)
		}
		if r.Source == serve.SourceCache {
			hits++
		}
		clk.advance(time.Duration(rng.IntN(120)) * time.Millisecond)
	}
	multi := 0
	for _, s := range fake.scans() {
		if len(s.metrics) > 1 {
			multi++
		}
	}
	if hits == 0 || multi == 0 {
		t.Errorf("%d cache hits, %d scans of several metrics: the schedule exercised nothing", hits, multi)
	}
}

// TestRiderMidFlight: while a fan-out carries a metric as a rider, a caller
// asking for that metric is served its entry while it is fresh and waits for
// the fan-out once it is not; nobody starts a second scan for it.
func TestRiderMidFlight(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	fake := newBatchFake(clk)
	reg := metrics.New()
	f := serve.New(fake, serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now, Metrics: reg})
	for _, m := range []uint64{1, 2, 1, 2} { // filled, then served
		mustCount(t, f, m)
	}
	clk.advance(6 * ttl / 10)
	fake.gate = make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := f.Count(3)
		leader <- err
	}()
	for i := 0; i < 2000 && len(fake.scans()) < 3; i++ {
		time.Sleep(time.Millisecond)
	}
	if scans := fake.scans(); len(scans) != 3 || !reflect.DeepEqual(scans[2].metrics, []uint64{3, 1, 2}) {
		t.Fatalf("scans = %+v, want a third for metric 3 with 1 and 2 riding", scans)
	}

	if r := mustCount(t, f, 1); r.Source != serve.SourceCache || r.Age != 6*ttl/10 {
		t.Errorf("rider's fresh entry: %s at age %v", r.Source, r.Age)
	}
	clk.advance(5 * ttl / 10) // 1 and 2 have expired; the fan-out is still out
	waiter := make(chan serve.Result, 1)
	go func() {
		r, err := f.Count(2)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- r
	}()
	for i := 0; i < 2000 && counterValue(t, reg, "dhsd_coalesced_waiters_total") == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	close(fake.gate)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if r := <-waiter; r.Source != serve.SourceCoalesced || r.Estimate != 2 {
		t.Errorf("waiter on a rider: %+v", r)
	}
	if n := len(fake.scans()); n != 3 {
		t.Errorf("%d scans, want no second one for a metric in flight", n)
	}
	// A rider's first serve after the refresh is a cache hit like any other.
	if r := mustCount(t, f, 1); r.Source != serve.SourceCache || r.Age != 0 {
		t.Errorf("refreshed rider: %s at age %v", r.Source, r.Age)
	}
}

// TestFailedBatchLeavesRiders: a fan-out that fails fails the caller that
// missed; the riders' entries are as they were, still served and still in
// demand, and ride the next miss.
func TestFailedBatchLeavesRiders(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	fake := newBatchFake(clk)
	f := serve.New(fake, serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now})
	for _, m := range []uint64{1, 2, 1, 2} {
		mustCount(t, f, m)
	}
	clk.advance(6 * ttl / 10)
	kept := mustCount(t, f, 1)

	boom := errors.New("ring unreachable")
	fake.fail(boom)
	if _, err := f.Count(3); !errors.Is(err, boom) {
		t.Fatalf("miss during the outage: %v", err)
	}
	after := mustCount(t, f, 1)
	if after.Source != serve.SourceCache || !bytes.Equal(after.Body, kept.Body) || after.Age != kept.Age || f.CacheLen() != 2 {
		t.Errorf("rider after a failed batch: %+v (was %+v), %d entries", after, kept, f.CacheLen())
	}

	fake.fail(nil)
	mustCount(t, f, 3)
	scans := fake.scans()
	for _, s := range scans[len(scans)-2:] {
		if !reflect.DeepEqual(s.metrics, []uint64{3, 1, 2}) {
			t.Errorf("scan at %v was for %v, want the miss and both riders", s.at, s.metrics)
		}
	}
	if r := mustCount(t, f, 1); r.Source != serve.SourceCache || r.Age != 0 {
		t.Errorf("rider after the outage: %s at age %v", r.Source, r.Age)
	}
}

// TestNothingRidesWithoutCacheAndCoalescing: riders are cache entries
// registered in the flight map, so with either off a fan-out is for the one
// metric that was asked for.
func TestNothingRidesWithoutCacheAndCoalescing(t *testing.T) {
	for name, cfg := range map[string]serve.Config{
		"cache off":   {Coalesce: true},
		"no coalesce": {CacheTTL: ttl},
	} {
		t.Run(name, func(t *testing.T) {
			clk := &manualClock{t: time.Unix(1000, 0)}
			fake := newBatchFake(clk)
			cfg.Now = clk.now
			f := serve.New(fake, cfg)
			demand(t, f, clk, map[uint64]time.Duration{1: 0, 2: 0, 3: 3 * ttl / 10}, 50*time.Millisecond, 4*ttl)
			if len(fake.scans()) == 0 {
				t.Fatal("no scans")
			}
			for _, s := range fake.scans() {
				if len(s.metrics) != 1 {
					t.Errorf("scan at %v is for %v", s.at, s.metrics)
				}
			}
		})
	}
}

// TestCounterWithoutCountAll: a Counter that is only a Counter is asked for a
// batch one Count at a time, and callers are served exactly what a batching
// counter serves them.
func TestCounterWithoutCountAll(t *testing.T) {
	run := func(wrap func(*batchFake) serve.Counter) ([]serve.Result, []scanned) {
		clk := &manualClock{t: time.Unix(1000, 0)}
		fake := newBatchFake(clk)
		f := serve.New(wrap(fake), serve.Config{CacheTTL: ttl, Coalesce: true, Now: clk.now})
		return demand(t, f, clk, map[uint64]time.Duration{1: 0, 2: 3 * ttl / 10, 3: 7 * ttl / 10}, 50*time.Millisecond, 4*ttl), fake.scans()
	}
	batched, scans := run(func(b *batchFake) serve.Counter { return b })
	looped, counts := run(func(b *batchFake) serve.Counter { return countOnly{b} })
	if !reflect.DeepEqual(batched, looped) {
		t.Errorf("results differ:\n batched %+v\n looped  %+v", batched, looped)
	}
	var flat []scanned
	multi := false
	for _, s := range scans {
		multi = multi || len(s.metrics) > 1
		for _, m := range s.metrics {
			flat = append(flat, scanned{s.at, []uint64{m}})
		}
	}
	if !multi || !reflect.DeepEqual(flat, counts) {
		t.Errorf("the loop's Counts are not the batches' metrics in order:\n batches %+v\n counts  %+v", scans, counts)
	}
}

// stampCounter is a Counter with CountAll on the real clock that fails every
// fifth batch until it is healed. An answer's estimate is its metric and its ProbesAttempted the
// nanoseconds from start to the end of its scan: no later than the fill the
// frontend gives it, so an answer's age by its stamp bounds its age from
// above.
type stampCounter struct {
	start   time.Time
	batches atomic.Int64
	healed  atomic.Bool
}

var errEveryFifth = errors.New("every fifth batch fails")

func (c *stampCounter) Count(metric uint64) (netdht.CountResult, error) {
	res, err := c.CountAll(nil, []uint64{metric})
	if err != nil {
		return netdht.CountResult{}, err
	}
	return res[0], nil
}

func (c *stampCounter) CountAll(dst []netdht.CountResult, ms []uint64) ([]netdht.CountResult, error) {
	time.Sleep(100 * time.Microsecond) // a scan takes time, so callers meet in flight
	if c.batches.Add(1)%5 == 0 && !c.healed.Load() {
		return nil, errEveryFifth
	}
	at := int(time.Since(c.start))
	for _, m := range ms {
		dst = append(dst, netdht.CountResult{Estimate: float64(m), Quality: core.Quality{ProbesAttempted: at}})
	}
	return dst, nil
}

// TestConcurrentEngineRealClock drives the cache, the cohort and coalescing
// from 16 goroutines over Zipf metrics on the real clock, with a short TTL and
// a counter that fails every fifth batch. No call hangs; no answer is served
// at an age of the TTL or more; and once the load stops and the counter is
// healed, every metric's Count completes, without error and without
// coalescing: a flight left registered would hang it or hand it that flight's
// answer or error.
func TestConcurrentEngineRealClock(t *testing.T) {
	const (
		workers  = 16
		nMetrics = 12
		ttl      = 20 * time.Millisecond
		run      = 300 * time.Millisecond
		// grace bounds the time from a scan's end to its fill, which the
		// stamp cannot see: on a loaded race build a goroutine may wait a
		// scheduler slice in between.
		grace = 30 * time.Millisecond
	)
	sc := &stampCounter{start: time.Now()}
	f := serve.New(sc, serve.Config{CacheTTL: ttl, Coalesce: true})
	check := func(who string, m uint64, asked time.Time, r serve.Result, err error) {
		if errors.Is(err, errEveryFifth) && !sc.healed.Load() {
			return
		}
		if err != nil {
			t.Errorf("%s: Count(%d): %v", who, m, err)
			return
		}
		scanned := sc.start.Add(time.Duration(r.ProbesAttempted))
		if r.Estimate != float64(m) || r.Age >= ttl || asked.Sub(scanned) >= ttl+grace {
			t.Errorf("%s: metric %d served %+v, scanned %v before it was asked for", who, m, r, asked.Sub(scanned))
		}
	}

	done := make(chan struct{})
	var sources [3]atomic.Int64 // direct, cache, coalesced
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		stop := time.Now().Add(run)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				zipf := rand.NewZipf(rand.New(rand.NewPCG(uint64(w), 5)), 1.2, 1, nMetrics-1)
				for time.Now().Before(stop) {
					m := zipf.Uint64()
					asked := time.Now()
					r, err := f.Count(m)
					check("worker", m, asked, r, err)
					if err == nil {
						switch r.Source {
						case serve.SourceDirect:
							sources[0].Add(1)
						case serve.SourceCache:
							sources[1].Add(1)
						case serve.SourceCoalesced:
							sources[2].Add(1)
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(run + 10*time.Second):
		t.Fatal("a Count call hung")
	}
	for i, src := range []string{serve.SourceDirect, serve.SourceCache, serve.SourceCoalesced} {
		if sources[i].Load() == 0 {
			t.Errorf("no answer from %s: the load exercised too little", src)
		}
	}

	sc.healed.Store(true)
	time.Sleep(ttl) // every entry expires; a Count now misses
	for m := uint64(0); m < nMetrics; m++ {
		res := make(chan struct{})
		go func() {
			defer close(res)
			asked := time.Now()
			r, err := f.Count(m)
			check("after", m, asked, r, err)
			if err == nil && r.Source == serve.SourceCoalesced {
				t.Errorf("metric %d: coalesced with no other caller running", m)
			}
		}()
		select {
		case <-res:
		case <-time.After(10 * time.Second):
			t.Fatalf("metric %d: Count hung, a flight was left registered", m)
		}
	}
}
