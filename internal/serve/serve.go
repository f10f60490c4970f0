// Package serve is the query-serving layer of the networked deployment:
// the engine behind cmd/dhsd. It turns a counting ring client (anything
// with netdht.Client's Count shape) into a high-throughput frontend by
// exploiting the one property every DHS answer has — it is an
// *estimate*. A 250ms-stale estimate is statistically as good as a
// fresh one, so answers are cacheable with short TTLs; and two callers
// asking for the same metric at the same instant need one ring fan-out,
// not two, so in-flight queries coalesce. A fan-out is a scan for every
// metric handed to it at the hops of a scan for one (§4.2), so with the
// cache and coalescing on a miss refreshes, beside the metric that
// missed, the cached metrics that are in demand and at least half a TTL
// old: metrics kept warm expire together and are refreshed together, by
// one scan per TTL (Frontend.cohort). What cannot be absorbed by
// cache or coalescing is admission-controlled: a bounded in-flight
// limit plus a bounded queue with deadline shedding, so overload
// degrades into fast 429s instead of a latency collapse.
//
// Contracts (DESIGN.md §16):
//
//   - Byte identity. With the cache disabled, a Frontend answer is the
//     canonical JSON encoding of exactly the netdht.CountResult one
//     direct Client.Count call produces — coalescing and admission
//     control never alter a payload, only who computes it and when, and
//     with the cache off no metric rides another's fan-out.
//
//   - Staleness. With CacheTTL = t, a served estimate is never older
//     than t: entries past their TTL are treated as absent and trigger
//     a fresh fan-out. There is no serve-stale-while-refreshing mode.
//
//   - Shedding. A query is shed (ErrShed) only when the in-flight
//     limit is saturated AND the queue is full or the queue deadline
//     passed. Shedding is load-dependent, never content-dependent.
//
//   - Cost. Instrumentation follows the internal/metrics discipline: a
//     nil registry means nil instruments, whose own receiver check is
//     the one branch an event costs. A cache hit allocates nothing, and
//     neither does a fan-out with the cache and coalescing off on a warm
//     *netdht.Client: it asks the Counter's Count, passes no slices, and
//     Answer appends its body to the connection's buffer.
//
// Like internal/netdht and internal/metrics, this package lives in the
// wall-clock domain by design (TTLs and queue deadlines are real time)
// and is excluded from the determinism analyzer (DESIGN.md §10).
package serve

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
)

// Counter is the estimate source: one Count call is one full ring
// fan-out (lookups plus interval probes). *netdht.Client implements it.
type Counter interface {
	Count(metric uint64) (netdht.CountResult, error)
}

// batchCounter is a Counter whose fan-out takes several metrics at once, as
// *netdht.Client's does, appending their results to dst. New asks once
// whether its Counter is one.
type batchCounter interface {
	CountAll(dst []netdht.CountResult, metrics []uint64) ([]netdht.CountResult, error)
}

var _ batchCounter = (*netdht.Client)(nil)

// countEach is CountAll for a Counter without one: a Count per metric, and
// the first failure fails them all.
func countEach(c Counter) func([]netdht.CountResult, []uint64) ([]netdht.CountResult, error) {
	return func(dst []netdht.CountResult, metrics []uint64) ([]netdht.CountResult, error) {
		for _, m := range metrics {
			res, err := c.Count(m)
			if err != nil {
				return nil, err
			}
			dst = append(dst, res)
		}
		return dst, nil
	}
}

// ErrShed marks a query rejected by admission control; cmd/dhsd maps
// it to HTTP 429.
var ErrShed = errors.New("serve: overloaded, query shed")

// Result sources.
const (
	SourceDirect    = "direct"    // this call ran the ring fan-out
	SourceCache     = "cache"     // served from the estimate cache
	SourceCoalesced = "coalesced" // shared another caller's fan-out
)

// Config shapes a Frontend. The zero value disables the cache and
// coalescing — a pure admission-controlled passthrough.
type Config struct {
	// CacheTTL bounds how stale a served estimate may be; 0 (or
	// negative) disables the cache entirely.
	CacheTTL time.Duration
	// Coalesce enables singleflight-style sharing: concurrent Count
	// calls for one metric ride a single ring fan-out — and, with the
	// cache on, the fan-out a miss starts refreshes the cached metrics
	// that are due with it.
	Coalesce bool

	// Metrics instruments the frontend (cache hit/miss/stale, coalesced
	// waiters, shed counts, in-flight and queue gauges, latency
	// histograms). Nil means metrics off at the usual one-branch cost.
	Metrics *metrics.Registry

	// Now supplies the clock for TTL arithmetic; nil means time.Now.
	// A test hook — production frontends run on the wall clock.
	Now func() time.Time
}

// The admission bounds: at most maxInFlight ring fan-outs run at once, at
// most maxQueue queries wait for one, and a query that has waited
// queueTimeout is shed. Variables only so that a test can shrink them; a
// Frontend reads them once, in New.
var (
	maxInFlight  = 64
	maxQueue     = 4 * maxInFlight
	queueTimeout = 100 * time.Millisecond
)

// Result is one served answer: the estimate plus its canonical JSON
// body (the byte-identity contract's unit) and serving provenance.
type Result struct {
	netdht.CountResult
	// Body is json.Marshal of the CountResult (appendBody), computed once
	// per fan-out and shared by every cache/coalesced serve of it.
	Body []byte
	// Source says who computed the answer: direct, cache, or coalesced.
	Source string
	// Age is the cache entry's age at serve time; zero unless Source is
	// SourceCache. By the staleness contract, Age < CacheTTL always.
	Age time.Duration
}

// cacheEntry is one cached estimate. What it answers with is immutable
// once published.
type cacheEntry struct {
	metric uint64
	res    netdht.CountResult
	body   []byte
	at     time.Time
	// served is set by the first cache hit on the entry: the demand that
	// makes its metric worth refreshing before it is missed.
	served bool
	// fill is the entry's place in Frontend.fills.
	fill *list.Element
}

// flightCall is one in-flight coalesced fan-out, registered under every
// metric it scans; metrics[0] is the one that missed. res/err are written
// before done closes and read only after.
type flightCall struct {
	done    chan struct{}
	metrics []uint64
	res     []Result
	err     error
}

// result is the fan-out's answer for metric, to a caller that waited on it.
func (c *flightCall) result(metric uint64) (Result, error) {
	if c.err != nil {
		return Result{}, c.err
	}
	for i, m := range c.metrics {
		if m == metric {
			r := c.res[i]
			r.Source = SourceCoalesced
			return r, nil
		}
	}
	panic("serve: flight call does not hold the metric it was registered under")
}

// Frontend is the serving engine: cache, coalescer, admission
// controller. Safe for concurrent use by any number of goroutines.
type Frontend struct {
	cfg      Config
	counter  Counter
	countAll func(dst []netdht.CountResult, metrics []uint64) ([]netdht.CountResult, error)
	now      func() time.Time

	// mu guards the cache, its fill order and the flight map. A cache hit
	// takes it once; a fan-out runs without it.
	mu    sync.Mutex
	cache map[uint64]*cacheEntry
	// fills holds every cached entry in the order they were filled. The TTL
	// is one constant, so that is the order they expire in, and the entries
	// at least half a TTL old are a prefix.
	fills  list.List // of *cacheEntry
	flight map[uint64]*flightCall

	sem          chan struct{} // in-flight fan-out tokens, maxInFlight of them
	queued       atomic.Int64
	maxQueue     int64
	queueTimeout time.Duration

	m feMetrics
}

// New builds a Frontend over counter. A counter that also has
// CountAll(dst []netdht.CountResult, metrics []uint64)
// ([]netdht.CountResult, error) — *netdht.Client does — runs a fan-out of
// several metrics as one scan; any other is asked for them one Count at a
// time. A fan-out of one metric that nobody shares, with coalescing off,
// is the counter's Count.
func New(counter Counter, cfg Config) *Frontend {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &Frontend{
		cfg:          cfg,
		counter:      counter,
		countAll:     countEach(counter),
		now:          cfg.Now,
		cache:        make(map[uint64]*cacheEntry),
		flight:       make(map[uint64]*flightCall),
		sem:          make(chan struct{}, maxInFlight),
		maxQueue:     int64(maxQueue),
		queueTimeout: queueTimeout,
		m:            newFEMetrics(cfg.Metrics),
	}
	if b, ok := counter.(batchCounter); ok {
		f.countAll = b.CountAll
	}
	f.registerGauges(cfg.Metrics)
	return f
}

// cacheGet returns the fresh entry for metric, or nil. An entry past
// its TTL is reported stale — by the staleness contract it must never
// be served — and left for the fan-out that follows to replace. A hit
// marks the entry served.
func (f *Frontend) cacheGet(metric uint64) (*cacheEntry, time.Duration) {
	f.mu.Lock()
	e := f.cache[metric]
	var age time.Duration
	if e != nil {
		if age = f.now().Sub(e.at); age < f.cfg.CacheTTL {
			e.served = true
		}
	}
	f.mu.Unlock()
	switch {
	case e == nil:
		f.m.cacheMisses.Inc()
		return nil, 0
	case age >= f.cfg.CacheTTL:
		f.m.cacheStales.Inc()
		return nil, 0
	}
	f.m.cacheHits.Inc()
	return e, age
}

// cachePut publishes a fan-out's answers under one fill time, each in its
// metric's older entry's place.
func (f *Frontend) cachePut(metrics []uint64, results []Result) {
	at := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, metric := range metrics {
		e := &cacheEntry{metric: metric, res: results[i].CountResult, body: results[i].Body, at: at}
		if old := f.cache[metric]; old != nil {
			f.fills.Remove(old.fill)
		}
		f.cache[metric] = e
		e.fill = f.fills.PushBack(e)
	}
}

// cohort adds to call, which a miss is about to fan out, every cached metric
// that is at least half a TTL old, has been served from the cache since it
// was filled, and is not in flight already; and registers call under each, so
// that a caller who misses one of them meanwhile waits for this fan-out. The
// answers are published under one fill time, so the metrics of a cohort
// expire together, and the next miss on any of them refreshes them all.
//
// Half is not a knob: it is the largest share of the TTL under which any two
// cohorts in demand, filled d apart, become one within a TTL of the later
// fill. If d ≤ TTL/2, the earlier one's miss finds the later one TTL−d ≥
// TTL/2 old; if d > TTL/2, the later one's miss finds the earlier one,
// refilled d before, d old (DESIGN.md §16 "Cohort refresh"). In the steady
// state every metric in demand is refreshed once per TTL, by one fan-out, and
// a refresh before expiry is paid when two cohorts merge, not every period.
//
// The same walk evicts what has expired with nobody served from it: a metric
// asked for less than once per TTL never rides, and one that was in demand
// and no longer is rides once more and is gone a TTL later. The walk is over
// the entries at least half a TTL old, oldest first, not over the cache.
//
// The caller holds mu.
func (f *Frontend) cohort(call *flightCall) {
	now := f.now()
	var next *list.Element
	for el := f.fills.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		age := now.Sub(e.at)
		if age < f.cfg.CacheTTL/2 {
			break
		}
		if e.served {
			if f.flight[e.metric] == nil {
				f.flight[e.metric] = call
				call.metrics = append(call.metrics, e.metric)
			}
		} else if age >= f.cfg.CacheTTL {
			f.fills.Remove(el)
			delete(f.cache, e.metric)
		}
	}
}

// CacheLen reports the entries the cache holds. An expired one is among
// them until the next miss of a coalescing frontend evicts it, or a
// fan-out for its metric replaces it: this is a size, not a freshness
// claim.
func (f *Frontend) CacheLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.cache)
}

// Count serves one estimate for metric: cache first, then a coalesced
// or direct ring fan-out under admission control. The error is ErrShed
// (wrapped) when admission rejected the query.
func (f *Frontend) Count(metric uint64) (Result, error) { return f.answer(metric, nil) }

// answer is Count with the body of an answer that is this call's alone —
// a direct fan-out with the cache off — appended to body; any other
// answer's Body is the one it shares.
func (f *Frontend) answer(metric uint64, body []byte) (Result, error) {
	tm := f.m.reqSeconds.Start()
	r, err := f.count(metric, body)
	tm.Stop()
	return r, err
}

func (f *Frontend) count(metric uint64, body []byte) (Result, error) {
	if f.cfg.CacheTTL > 0 {
		if e, age := f.cacheGet(metric); e != nil {
			return Result{CountResult: e.res, Body: e.body, Source: SourceCache, Age: age}, nil
		}
	}
	if !f.cfg.Coalesce {
		if f.cfg.CacheTTL > 0 {
			res, err := f.fanout([]uint64{metric})
			if err != nil {
				return Result{}, err
			}
			return res[0], nil
		}
		return f.direct(metric, body)
	}

	f.mu.Lock()
	if running := f.flight[metric]; running != nil {
		f.mu.Unlock()
		f.m.coalesced.Inc()
		<-running.done
		return running.result(metric)
	}
	call := &flightCall{done: make(chan struct{}), metrics: []uint64{metric}}
	f.flight[metric] = call
	if f.cfg.CacheTTL > 0 {
		f.cohort(call)
	}
	f.mu.Unlock()

	call.res, call.err = f.fanout(call.metrics)
	f.mu.Lock()
	for _, m := range call.metrics {
		delete(f.flight, m)
	}
	f.mu.Unlock()
	close(call.done)
	if call.err != nil {
		return Result{}, call.err
	}
	return call.res[0], nil
}

// direct runs one admitted ring fan-out for metric alone, its answer
// nobody else's: the counter's Count, and the body appended to body.
func (f *Frontend) direct(metric uint64, body []byte) (Result, error) {
	if err := f.admit(); err != nil {
		return Result{}, err
	}
	defer f.release()
	tm := f.m.fanSeconds.Start()
	res, err := f.counter.Count(metric)
	f.m.finishFanout(tm, 1, err)
	if err != nil {
		return Result{}, err
	}
	if body, err = appendBody(body, &res); err != nil {
		return Result{}, err
	}
	return Result{CountResult: res, Body: body, Source: SourceDirect}, nil
}

// fanout runs one admitted ring fan-out for metrics — one admission slot
// and one scan, however many they are — and (cache on) publishes the
// answers. A failure publishes nothing: the entries of the metrics that
// rode stay as they were.
func (f *Frontend) fanout(metrics []uint64) ([]Result, error) {
	if err := f.admit(); err != nil {
		return nil, err
	}
	defer f.release()
	tm := f.m.fanSeconds.Start()
	counts, err := f.countAll(nil, metrics)
	f.m.finishFanout(tm, len(metrics), err)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(metrics))
	for i := range counts {
		body, err := appendBody(nil, &counts[i])
		if err != nil {
			return nil, err
		}
		results[i] = Result{CountResult: counts[i], Body: body, Source: SourceDirect}
	}
	if f.cfg.CacheTTL > 0 {
		f.cachePut(metrics, results)
	}
	return results, nil
}

// admit takes one in-flight token: immediately if one is free,
// otherwise by queueing up to maxQueue waiters for at most
// queueTimeout. Both rejection paths return a wrapped ErrShed.
func (f *Frontend) admit() error {
	select {
	case f.sem <- struct{}{}:
		f.m.inflight.Add(+1)
		return nil
	default:
	}
	for {
		q := f.queued.Load()
		if q >= f.maxQueue {
			f.m.shedQueue.Inc()
			return fmt.Errorf("%w: queue full (%d waiting)", ErrShed, q)
		}
		if f.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	f.m.queue.Set(f.queued.Load())
	timer := time.NewTimer(f.queueTimeout)
	defer timer.Stop()
	select {
	case f.sem <- struct{}{}:
		f.m.queue.Set(f.queued.Add(-1))
		f.m.inflight.Add(+1)
		return nil
	case <-timer.C:
		f.m.queue.Set(f.queued.Add(-1))
		f.m.shedDead.Inc()
		return fmt.Errorf("%w: queued past the %v deadline", ErrShed, f.queueTimeout)
	}
}

func (f *Frontend) release() {
	<-f.sem
	f.m.inflight.Add(-1)
}

// Stats is the /statusz snapshot of the serving engine.
type Stats struct {
	CacheTTLMS     int64 `json:"cache_ttl_ms"`
	CacheEntries   int   `json:"cache_entries"`
	Coalesce       bool  `json:"coalesce"`
	MaxInFlight    int   `json:"max_in_flight"`
	MaxQueue       int   `json:"max_queue"`
	QueueTimeoutMS int64 `json:"queue_timeout_ms"`
	InFlight       int   `json:"in_flight"`
	Queued         int64 `json:"queued"`
}

// Stats snapshots the frontend's configuration and load.
func (f *Frontend) Stats() Stats {
	return Stats{
		CacheTTLMS:     f.cfg.CacheTTL.Milliseconds(),
		CacheEntries:   f.CacheLen(),
		Coalesce:       f.cfg.Coalesce,
		MaxInFlight:    cap(f.sem),
		MaxQueue:       int(f.maxQueue),
		QueueTimeoutMS: f.queueTimeout.Milliseconds(),
		InFlight:       len(f.sem),
		Queued:         f.queued.Load(),
	}
}

// appendBody appends the canonical JSON of r — the bytes json.Marshal
// writes for it — to dst: the one encoder of every /count body, which
// TestAppendBodyIsMarshal holds to json.Marshal field by field. A value
// json.Marshal refuses, an infinite or NaN estimate, is an error here.
func appendBody(dst []byte, r *netdht.CountResult) ([]byte, error) {
	if math.IsInf(r.Estimate, 0) || math.IsNaN(r.Estimate) {
		return dst, fmt.Errorf("serve: estimate %v has no JSON encoding", r.Estimate)
	}
	// encoding/json's float64 form: 'f', or 'e' outside [1e-6, 1e21),
	// with a one-digit negative exponent written without its zero.
	format := byte('f')
	if abs := math.Abs(r.Estimate); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = append(dst, `{"estimate":`...)
	dst = strconv.AppendFloat(dst, r.Estimate, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	q := &r.Quality
	dst = strconv.AppendInt(append(dst, `,"probes_attempted":`...), int64(q.ProbesAttempted), 10)
	dst = strconv.AppendInt(append(dst, `,"probes_failed":`...), int64(q.ProbesFailed), 10)
	dst = strconv.AppendInt(append(dst, `,"intervals_skipped":`...), int64(q.IntervalsSkipped), 10)
	dst = strconv.AppendInt(append(dst, `,"vectors_unresolved":`...), int64(q.VectorsUnresolved), 10)
	dst = strconv.AppendInt(append(dst, `,"stale_retries":`...), int64(q.StaleRetries), 10)
	dst = strconv.AppendBool(append(dst, `,"repair_window":`...), q.RepairWindow)
	dst = strconv.AppendBool(append(dst, `,"degraded":`...), q.Degraded)
	return append(dst, '}'), nil
}
