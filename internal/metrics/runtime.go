package metrics

import (
	"os"
	rtmetrics "runtime/metrics"
	"sync"
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
// file bytes are mostly the process's own binary. Reading them allocates
// nothing, so a scrape does not move go_heap_allocs_bytes. Nil receiver is
// a no-op and allocates nothing.
func (r *Registry) RegisterRuntime() {
	if r == nil {
		return
	}
	for _, s := range runtimeSeries {
		var mu sync.Mutex // orders concurrent scrapes' reads into v
		v := []rtmetrics.Sample{{Name: s.sample}}
		r.GaugeFunc(s.name, s.help, func() float64 {
			mu.Lock()
			defer mu.Unlock()
			rtmetrics.Read(v)
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

// statm is /proc/self/statm, opened by the first read and read again from
// its start by every later one, into buf: the file describes the process,
// so one handle serves every registry in it, and reading through it
// allocates nothing.
var statm struct {
	sync.Mutex
	f   *os.File
	buf [128]byte
}

// statmBytes reads field i of /proc/self/statm — 1 is the resident pages,
// 2 the resident shared (file-backed) ones — in bytes; 0 where the file is
// absent or unreadable.
func statmBytes(i int) float64 {
	statm.Lock()
	defer statm.Unlock()
	if statm.f == nil {
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			return 0
		}
		statm.f = f
	}
	n, _ := statm.f.ReadAt(statm.buf[:], 0) // the whole file, short of buf, ends in io.EOF
	pages, ok := field(statm.buf[:n], i)
	if !ok {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize())
}

// field parses the i-th of the space-separated decimal fields of b.
func field(b []byte, i int) (v uint64, ok bool) {
	for f := 0; len(b) > 0; f++ {
		j := 0
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			if f == i {
				v = v*10 + uint64(b[j]-'0')
			}
			j++
		}
		if f == i {
			return v, j > 0
		}
		if j == len(b) || b[j] != ' ' {
			return 0, false
		}
		b = b[j+1:]
	}
	return 0, false
}
