package serve

import "dhsketch/internal/metrics"

// feMetrics holds the frontend instruments. The discipline mirrors
// internal/netdht: a nil *feMetrics (registry off) makes every hook a
// one-branch no-op, and the cache-hit hot path allocates nothing
// either way (pinned by TestCacheHitZeroAlloc).
type feMetrics struct {
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	cacheStales *metrics.Counter
	coalesced   *metrics.Counter
	shedQueue   *metrics.Counter
	shedDead    *metrics.Counter
	inflight    *metrics.Gauge
	queue       *metrics.Gauge
	reqSeconds  *metrics.Histogram
	fanSeconds  *metrics.Histogram
	fanMetrics  *metrics.Counter
	fanErrors   *metrics.Counter
}

func newFEMetrics(reg *metrics.Registry) *feMetrics {
	if reg == nil {
		return nil
	}
	return &feMetrics{
		cacheHits:   reg.Counter("dhsd_cache_requests_total", "estimate-cache lookups by outcome", metrics.L("result", "hit")),
		cacheMisses: reg.Counter("dhsd_cache_requests_total", "estimate-cache lookups by outcome", metrics.L("result", "miss")),
		cacheStales: reg.Counter("dhsd_cache_requests_total", "estimate-cache lookups by outcome", metrics.L("result", "stale")),
		coalesced:   reg.Counter("dhsd_coalesced_waiters_total", "queries that shared another caller's in-flight fan-out"),
		shedQueue:   reg.Counter("dhsd_shed_total", "queries rejected by admission control", metrics.L("reason", "queue_full")),
		shedDead:    reg.Counter("dhsd_shed_total", "queries rejected by admission control", metrics.L("reason", "deadline")),
		inflight:    reg.Gauge("dhsd_in_flight", "ring fan-outs currently running"),
		queue:       reg.Gauge("dhsd_queue_depth", "queries waiting for a fan-out slot"),
		reqSeconds:  reg.Histogram("dhsd_request_seconds", "end-to-end serve latency (any source)", metrics.DefLatencyBuckets),
		fanSeconds:  reg.Histogram("dhsd_fanout_seconds", "ring fan-out latency", metrics.DefLatencyBuckets),
		fanMetrics:  reg.Counter("dhsd_fanout_metrics_total", "metrics the ring fan-outs scanned, the one that missed and those refreshed with it"),
		fanErrors:   reg.Counter("dhsd_fanout_errors_total", "ring fan-outs that returned an error"),
	}
}

func (m *feMetrics) cacheHit() {
	if m == nil {
		return
	}
	m.cacheHits.Inc()
}

func (m *feMetrics) cacheMiss() {
	if m == nil {
		return
	}
	m.cacheMisses.Inc()
}

func (m *feMetrics) cacheStale() {
	if m == nil {
		return
	}
	m.cacheStales.Inc()
}

func (m *feMetrics) coalescedWaiter() {
	if m == nil {
		return
	}
	m.coalesced.Inc()
}

func (m *feMetrics) shedQueueFull() {
	if m == nil {
		return
	}
	m.shedQueue.Inc()
}

func (m *feMetrics) shedDeadline() {
	if m == nil {
		return
	}
	m.shedDead.Inc()
}

func (m *feMetrics) inflightDelta(d int64) {
	if m == nil {
		return
	}
	m.inflight.Add(d)
}

func (m *feMetrics) queueDepth(depth int64) {
	if m == nil {
		return
	}
	m.queue.Set(depth)
}

func (m *feMetrics) startRequest() metrics.Timer {
	if m == nil {
		return metrics.Timer{}
	}
	return m.reqSeconds.Start()
}

func (m *feMetrics) finishRequest(tm metrics.Timer) { tm.Stop() }

func (m *feMetrics) startFanout() metrics.Timer {
	if m == nil {
		return metrics.Timer{}
	}
	return m.fanSeconds.Start()
}

// finishFanout meters one fan-out over scanned metrics.
func (m *feMetrics) finishFanout(tm metrics.Timer, scanned int, err error) {
	tm.Stop()
	if m == nil {
		return
	}
	m.fanMetrics.Add(uint64(scanned))
	if err != nil {
		m.fanErrors.Inc()
	}
}

// registerGauges publishes the scrape-time size gauges.
func (f *Frontend) registerGauges(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("dhsd_cache_entries", "entries held by the estimate cache",
		func() float64 { return float64(f.CacheLen()) })
}
