package metrics

import rtmetrics "runtime/metrics"

// The Go runtime's own samples a daemon's registry exposes (DESIGN.md §15):
// how often the process collects, how much it has ever allocated, and how
// much heap is in use. They are read through runtime/metrics, which — unlike
// runtime.ReadMemStats — does not stop the world, so a scrape costs the
// scraped process nothing it would notice.
var runtimeSeries = []struct{ name, help, sample string }{
	{"go_gc_cycles", "completed garbage-collection cycles", "/gc/cycles/total:gc-cycles"},
	{"go_heap_allocs_bytes", "bytes ever allocated on the heap", "/gc/heap/allocs:bytes"},
	{"go_heap_objects_bytes", "heap bytes in use: live objects and garbage not yet swept", "/memory/classes/heap/objects:bytes"},
}

// RegisterRuntime adds the runtimeSeries to the registry as scrape-time
// gauges (the first two are monotonic, typed gauge like every sampled
// series here). allocs ÷ requests handled is what one request leaves
// behind; cycles standing still under load is a process that does not
// collect. Nil receiver is a no-op.
func (r *Registry) RegisterRuntime() {
	for _, s := range runtimeSeries {
		r.GaugeFunc(s.name, s.help, func() float64 {
			v := [1]rtmetrics.Sample{{Name: s.sample}}
			rtmetrics.Read(v[:])
			if v[0].Value.Kind() != rtmetrics.KindUint64 {
				return 0 // a runtime that does not know the sample
			}
			return float64(v[0].Value.Uint64())
		})
	}
}
