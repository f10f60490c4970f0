package serve

import "dhsketch/internal/metrics"

// feMetrics holds the frontend instruments. The discipline is
// internal/netdht's: they are built from the registry whether or not
// there is one, a nil registry leaves every instrument nil, and a nil
// instrument's own receiver check is all an event then costs — the
// cache-hit hot path allocates nothing either way (pinned by
// TestCacheHitZeroAlloc).
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

func newFEMetrics(reg *metrics.Registry) feMetrics {
	return feMetrics{
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

// finishFanout meters one fan-out over scanned metrics.
func (m *feMetrics) finishFanout(tm metrics.Timer, scanned int, err error) {
	tm.Stop()
	m.fanMetrics.Add(uint64(scanned))
	if err != nil {
		m.fanErrors.Inc()
	}
}

// registerGauges publishes the scrape-time size gauges; a nil registry
// registers nothing.
func (f *Frontend) registerGauges(reg *metrics.Registry) {
	reg.GaugeFunc("dhsd_cache_entries", "entries held by the estimate cache",
		func() float64 { return float64(f.CacheLen()) })
}
