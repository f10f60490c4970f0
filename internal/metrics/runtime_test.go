package metrics

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// scrapeValue reads one unlabelled series out of the registry's exposition.
func scrapeValue(t *testing.T, r *Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not exposed:\n%s", name, sb.String())
	return 0
}

var sink []byte

// TestRegisterRuntime: the three runtime series are exposed, move with what
// the process does, and a nil registry takes the call.
func TestRegisterRuntime(t *testing.T) {
	var none *Registry
	none.RegisterRuntime()

	r := New()
	r.RegisterRuntime()
	cycles, allocs := scrapeValue(t, r, "go_gc_cycles"), scrapeValue(t, r, "go_heap_allocs_bytes")
	if inUse := scrapeValue(t, r, "go_heap_objects_bytes"); inUse <= 0 || allocs <= 0 {
		t.Errorf("heap in use %v, ever allocated %v", inUse, allocs)
	}
	sink = make([]byte, 1<<20)
	runtime.GC()
	if got := scrapeValue(t, r, "go_gc_cycles"); got <= cycles {
		t.Errorf("go_gc_cycles %v after a collection, %v before", got, cycles)
	}
	if got := scrapeValue(t, r, "go_heap_allocs_bytes"); got < allocs+1<<20 {
		t.Errorf("go_heap_allocs_bytes %v after allocating a MiB, %v before", got, allocs)
	}
}
