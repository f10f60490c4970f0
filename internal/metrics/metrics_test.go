package metrics

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the full exposition format: family
// order (sorted by name, regardless of registration order), series
// order (sorted by label signature), label canonicalization (key
// order), histogram bucket cumulation, and value formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	// Registered deliberately out of name order, with label pairs
	// deliberately out of key order.
	r.Gauge("zz_pool_conns", "open peer connections").Set(3)
	r.Counter("rpc_total", "requests served", L("tag", "probe")).Add(7)
	r.Counter("rpc_total", "requests served", L("tag", "find_succ")).Add(41)
	h := r.Histogram("latency_seconds", "request latency", []float64{0.01, 0.1, 1},
		L("tag", "insert"), L("class", "ok"))
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(99) // overflow
	r.GaugeFunc("aa_store_tuples", "live tuples", func() float64 { return 12.5 })

	// The same (name, labels) registration must return the same series,
	// whatever the label argument order.
	if c := r.Counter("rpc_total", "requests served", L("tag", "probe")); c.Value() != 7 {
		t.Fatalf("re-registration returned a fresh counter: %d", c.Value())
	}
	if h2 := r.Histogram("latency_seconds", "request latency", []float64{0.01, 0.1, 1},
		L("class", "ok"), L("tag", "insert")); h2 != h {
		t.Fatal("label order changed series identity")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP aa_store_tuples live tuples
# TYPE aa_store_tuples gauge
aa_store_tuples 12.5
# HELP latency_seconds request latency
# TYPE latency_seconds histogram
latency_seconds_bucket{class="ok",tag="insert",le="0.01"} 2
latency_seconds_bucket{class="ok",tag="insert",le="0.1"} 2
latency_seconds_bucket{class="ok",tag="insert",le="1"} 3
latency_seconds_bucket{class="ok",tag="insert",le="+Inf"} 4
latency_seconds_sum{class="ok",tag="insert"} 99.51
latency_seconds_count{class="ok",tag="insert"} 4
# HELP rpc_total requests served
# TYPE rpc_total counter
rpc_total{tag="find_succ"} 41
rpc_total{tag="probe"} 7
# HELP zz_pool_conns open peer connections
# TYPE zz_pool_conns gauge
zz_pool_conns 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A second scrape of unchanged state is byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatalf("second WritePrometheus: %v", err)
	}
	if sb2.String() != sb.String() {
		t.Error("two scrapes of the same state differ")
	}
}

// TestHistogramBuckets pins the bucket boundary rule (le is inclusive:
// a value exactly at a bound lands in that bound's bucket) and the
// overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.1, 1e9} {
		h.Observe(v)
	}
	// Internal (non-cumulative) expectations:
	//   ≤1: 0.5, 1       → 2
	//   ≤2: 1.0000001, 2 → 2
	//   ≤4: 4            → 1
	//   +Inf: 4.1, 1e9   → 2
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	// Exposition renders cumulative counts.
	var sb strings.Builder
	r.WritePrometheus(&sb)
	for _, line := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 4`,
		`h_bucket{le="4"} 5`,
		`h_bucket{le="+Inf"} 7`,
		`h_count 7`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets did not panic")
		}
	}()
	New().Histogram("bad", "", []float64{1, 1})
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestNilRegistry pins the "metrics off" contract: a nil registry hands
// out nil instruments, every instrument method no-ops on nil, and the
// writer writes nothing.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefLatencyBuckets)
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out a live instrument")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	tm := h.Start()
	tm.Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instrument reported a value")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}

// TestNilInstrumentsZeroAlloc pins the overhead budget: the metrics-off
// path allocates nothing (DESIGN.md §15) — the same discipline the
// store probe path's regression test enforces end to end.
func TestNilInstrumentsZeroAlloc(t *testing.T) {
	var c *Counter
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(1.5)
		h.Start().Stop()
	}); n != 0 {
		t.Errorf("nil instruments allocated %.1f/op, want 0", n)
	}
	// Live instruments are allocation-free too — they are atomics.
	r := New()
	lc := r.Counter("c", "")
	lh := r.Histogram("h", "", []float64{1, 2, 4})
	if n := testing.AllocsPerRun(100, func() {
		lc.Inc()
		lh.Observe(1.5)
	}); n != 0 {
		t.Errorf("live instruments allocated %.1f/op, want 0", n)
	}
}

func TestTimer(t *testing.T) {
	r := New()
	h := r.Histogram("t_seconds", "", DefLatencyBuckets)
	tm := h.Start()
	time.Sleep(time.Millisecond)
	tm.Stop()
	if h.Count() != 1 {
		t.Fatalf("timer recorded %d observations, want 1", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("timer sum %v, want > 0", h.Sum())
	}
}

// TestConcurrentUpdates exercises the lock-free paths under the race
// detector and checks the totals.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []float64{1})
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != workers*per*0.5 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), workers*per*0.5)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
}

// TestLabelEscaping pins value escaping in the exposition output.
func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("c", "", L("addr", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `c{addr="a\"b\\c\n"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("escaped series missing, want %q in:\n%s", want, sb.String())
	}
}

// TestWritePrometheusZeroAlloc pins the scrape of a daemon's registry:
// once a scrape has seen every series, the next allocates nothing — runtime
// and resident-memory samples included, as dhsnode's and dhsd's /metrics
// registries hold them — and a series registered after it shows in the
// scrape that follows.
func TestWritePrometheusZeroAlloc(t *testing.T) {
	r := New()
	r.RegisterRuntime()
	for _, tag := range []string{"probe", "find_succ", "insert"} {
		r.Counter("rpc_total", "requests served", L("tag", tag)).Add(7)
		r.Histogram("rpc_seconds", "request latency", DefLatencyBuckets, L("tag", tag)).Observe(0.003)
	}
	r.Gauge("pool_conns", "open peer connections").Set(-3)
	r.GaugeFunc("store_tuples", "live tuples", func() float64 { return 12.5 })
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if n := testing.AllocsPerRun(20, func() { r.WritePrometheus(io.Discard) }); n != 0 {
		t.Errorf("a scrape allocated %.1f/op, want 0", n)
	}
	r.Counter("rpc_total", "requests served", L("tag", "ping")).Inc()
	out.Reset()
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(out.String(), "\nrpc_total{tag=\"ping\"} 1\nrpc_total{tag=\"probe\"} 7\n") {
		t.Errorf("a series registered after a scrape is missing from the next, or out of order:\n%s", out.String())
	}
}
