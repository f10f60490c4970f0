// Package serve is the query-serving layer of the networked deployment:
// the engine behind cmd/dhsd. It turns a counting ring client (anything
// with netdht.Client's Count shape) into a high-throughput frontend by
// exploiting the one property every DHS answer has — it is an
// *estimate*. A 250ms-stale estimate is statistically as good as a
// fresh one, so answers are cacheable with short TTLs; and two callers
// asking for the same metric at the same instant need one ring fan-out,
// not two, so in-flight queries coalesce. What cannot be absorbed by
// cache or coalescing is admission-controlled: a bounded in-flight
// limit plus a bounded queue with deadline shedding, so overload
// degrades into fast 429s instead of a latency collapse.
//
// Contracts (DESIGN.md §16):
//
//   - Byte identity. With the cache disabled, a Frontend answer is the
//     canonical JSON encoding of exactly the netdht.CountResult one
//     direct Client.Count call produces — coalescing and admission
//     control never alter a payload, only who computes it and when.
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
//     nil registry means nil instruments, one branch per event, zero
//     allocations on the cache-hit path.
//
// Like internal/netdht and internal/metrics, this package lives in the
// wall-clock domain by design (TTLs and queue deadlines are real time)
// and is excluded from the determinism analyzer (DESIGN.md §10).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
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
// coalescing and applies the admission defaults — a pure
// admission-controlled passthrough.
type Config struct {
	// CacheTTL bounds how stale a served estimate may be; 0 (or
	// negative) disables the cache entirely.
	CacheTTL time.Duration
	// Coalesce enables singleflight-style sharing: concurrent Count
	// calls for one metric ride a single ring fan-out.
	Coalesce bool

	// MaxInFlight bounds concurrent ring fan-outs (default 64). MaxQueue
	// bounds queries waiting for a fan-out slot (default 4×MaxInFlight);
	// QueueTimeout (default 100ms) sheds a queued query whose wait
	// exceeds the deadline.
	MaxInFlight  int
	MaxQueue     int
	QueueTimeout time.Duration

	// Metrics instruments the frontend (cache hit/miss/stale, coalesced
	// waiters, shed counts, in-flight and queue gauges, latency
	// histograms). Nil means metrics off at the usual one-branch cost.
	Metrics *metrics.Registry

	// Now supplies the clock for TTL arithmetic; nil means time.Now.
	// A test hook — production frontends run on the wall clock.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Result is one served answer: the estimate plus its canonical JSON
// body (the byte-identity contract's unit) and serving provenance.
type Result struct {
	netdht.CountResult
	// Body is json.Marshal of the CountResult, computed once per
	// fan-out and shared by every cache/coalesced serve of it.
	Body []byte
	// Source says who computed the answer: direct, cache, or coalesced.
	Source string
	// Age is the cache entry's age at serve time; zero unless Source is
	// SourceCache. By the staleness contract, Age < CacheTTL always.
	Age time.Duration
}

// cacheEntry is one cached estimate; immutable once published.
type cacheEntry struct {
	res  netdht.CountResult
	body []byte
	at   time.Time
}

// cacheShards is the shard count of the estimate cache. Sharding keeps
// a hot scrape or a hot metric from serializing unrelated lookups.
const cacheShards = 16

type cacheShard struct {
	mu sync.Mutex
	m  map[uint64]*cacheEntry
}

// flightCall is one in-flight coalesced fan-out; res/err are written
// before done closes and read only after.
type flightCall struct {
	done chan struct{}
	res  Result
	err  error
}

// Frontend is the serving engine: cache, coalescer, admission
// controller. Safe for concurrent use by any number of goroutines.
type Frontend struct {
	cfg     Config
	counter Counter
	now     func() time.Time

	shards [cacheShards]cacheShard

	sem    chan struct{} // in-flight fan-out tokens
	queued atomic.Int64

	flightMu sync.Mutex
	flight   map[uint64]*flightCall

	m *feMetrics
}

// New builds a Frontend over counter.
func New(counter Counter, cfg Config) *Frontend {
	cfg = cfg.withDefaults()
	f := &Frontend{
		cfg:     cfg,
		counter: counter,
		now:     cfg.Now,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		flight:  make(map[uint64]*flightCall),
		m:       newFEMetrics(cfg.Metrics),
	}
	for i := range f.shards {
		f.shards[i].m = make(map[uint64]*cacheEntry)
	}
	f.registerGauges(cfg.Metrics)
	return f
}

// shardOf mixes the metric id (an md4 hash, but defend against
// low-entropy ids anyway) down to a shard index.
func (f *Frontend) shardOf(metric uint64) *cacheShard {
	h := metric * 0x9e3779b97f4a7c15
	return &f.shards[(h>>32)%cacheShards]
}

// cacheGet returns the fresh entry for metric, or nil. An entry past
// its TTL is deleted and reported stale — by the staleness contract it
// must never be served.
func (f *Frontend) cacheGet(metric uint64) (*cacheEntry, time.Duration) {
	sh := f.shardOf(metric)
	sh.mu.Lock()
	e := sh.m[metric]
	if e == nil {
		sh.mu.Unlock()
		f.m.cacheMiss()
		return nil, 0
	}
	age := f.now().Sub(e.at)
	if age >= f.cfg.CacheTTL {
		delete(sh.m, metric)
		sh.mu.Unlock()
		f.m.cacheStale()
		return nil, 0
	}
	sh.mu.Unlock()
	f.m.cacheHit()
	return e, age
}

func (f *Frontend) cachePut(metric uint64, res netdht.CountResult, body []byte) {
	sh := f.shardOf(metric)
	e := &cacheEntry{res: res, body: body, at: f.now()}
	sh.mu.Lock()
	sh.m[metric] = e
	sh.mu.Unlock()
}

// CacheLen reports live cache entries across all shards (expired
// entries linger until touched; they are counted — this is a size
// gauge, not a freshness claim).
func (f *Frontend) CacheLen() int {
	n := 0
	for i := range f.shards {
		f.shards[i].mu.Lock()
		n += len(f.shards[i].m)
		f.shards[i].mu.Unlock()
	}
	return n
}

// Count serves one estimate for metric: cache first, then a coalesced
// or direct ring fan-out under admission control. The error is ErrShed
// (wrapped) when admission rejected the query.
func (f *Frontend) Count(metric uint64) (Result, error) {
	tm := f.m.startRequest()
	r, err := f.count(metric)
	f.m.finishRequest(tm)
	return r, err
}

func (f *Frontend) count(metric uint64) (Result, error) {
	if f.cfg.CacheTTL > 0 {
		if e, age := f.cacheGet(metric); e != nil {
			return Result{CountResult: e.res, Body: e.body, Source: SourceCache, Age: age}, nil
		}
	}
	if !f.cfg.Coalesce {
		return f.fanout(metric)
	}

	f.flightMu.Lock()
	if call := f.flight[metric]; call != nil {
		f.flightMu.Unlock()
		f.m.coalescedWaiter()
		<-call.done
		if call.err != nil {
			return Result{}, call.err
		}
		r := call.res
		r.Source = SourceCoalesced
		return r, nil
	}
	call := &flightCall{done: make(chan struct{})}
	f.flight[metric] = call
	f.flightMu.Unlock()

	call.res, call.err = f.fanout(metric)
	f.flightMu.Lock()
	delete(f.flight, metric)
	f.flightMu.Unlock()
	close(call.done)
	return call.res, call.err
}

// fanout runs one admitted ring fan-out and (cache on) publishes the
// answer.
func (f *Frontend) fanout(metric uint64) (Result, error) {
	if err := f.admit(); err != nil {
		return Result{}, err
	}
	defer f.release()
	tm := f.m.startFanout()
	res, err := f.counter.Count(metric)
	f.m.finishFanout(tm, err)
	if err != nil {
		return Result{}, err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return Result{}, err
	}
	if f.cfg.CacheTTL > 0 {
		f.cachePut(metric, res, body)
	}
	return Result{CountResult: res, Body: body, Source: SourceDirect}, nil
}

// admit takes one in-flight token: immediately if one is free,
// otherwise by queueing up to MaxQueue waiters for at most
// QueueTimeout. Both rejection paths return a wrapped ErrShed.
func (f *Frontend) admit() error {
	select {
	case f.sem <- struct{}{}:
		f.m.inflightDelta(+1)
		return nil
	default:
	}
	for {
		q := f.queued.Load()
		if q >= int64(f.cfg.MaxQueue) {
			f.m.shedQueueFull()
			return fmt.Errorf("%w: queue full (%d waiting)", ErrShed, q)
		}
		if f.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	f.m.queueDepth(f.queued.Load())
	timer := time.NewTimer(f.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case f.sem <- struct{}{}:
		f.m.queueDepth(f.queued.Add(-1))
		f.m.inflightDelta(+1)
		return nil
	case <-timer.C:
		f.m.queueDepth(f.queued.Add(-1))
		f.m.shedDeadline()
		return fmt.Errorf("%w: queued past the %v deadline", ErrShed, f.cfg.QueueTimeout)
	}
}

func (f *Frontend) release() {
	<-f.sem
	f.m.inflightDelta(-1)
}

// Stats is the /statusz snapshot of the serving engine.
type Stats struct {
	CacheTTLMS     int64 `json:"cache_ttl_ms"`
	CacheShards    int   `json:"cache_shards"`
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
		CacheShards:    cacheShards,
		CacheEntries:   f.CacheLen(),
		Coalesce:       f.cfg.Coalesce,
		MaxInFlight:    f.cfg.MaxInFlight,
		MaxQueue:       f.cfg.MaxQueue,
		QueueTimeoutMS: f.cfg.QueueTimeout.Milliseconds(),
		InFlight:       len(f.sem),
		Queued:         f.queued.Load(),
	}
}
