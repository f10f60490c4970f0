package metrics

import (
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
)

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
// series here), and the process's resident memory as the kernel counts it.
// allocs ÷ requests handled is what one request leaves behind; cycles
// standing still under load is a process that does not collect; resident
// file bytes are mostly the process's own binary. Nil receiver is a no-op
// and allocates nothing.
func (r *Registry) RegisterRuntime() {
	if r == nil {
		return
	}
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
	r.GaugeFunc("process_resident_memory_bytes", "resident memory: anonymous and file-backed pages",
		func() float64 { return statmBytes(1) })
	r.GaugeFunc("process_resident_file_bytes", "resident file-backed and shared-memory pages: the binary, its libraries",
		func() float64 { return statmBytes(2) })
}

// statmBytes reads field i of /proc/self/statm — 1 is the resident pages,
// 2 the resident shared (file-backed) ones — in bytes; 0 where the file is
// absent or unreadable.
func statmBytes(i int) float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) <= i {
		return 0
	}
	pages, err := strconv.ParseUint(f[i], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize())
}
