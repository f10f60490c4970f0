package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The checkout root, seen from the package directory `go test` runs in.
const testRoot = ".."

func TestSameSeedSameInputs(t *testing.T) {
	render := func(seed uint64) string {
		var b strings.Builder
		for _, w := range workloads {
			for _, o := range firstOps(w, seed, 2000) {
				fmt.Fprintf(&b, "%s %d %s %d %d %d\n", w.name, o.kind, o.fam.prefix, o.metric, o.item, o.due)
			}
		}
		for _, f := range []family{{prefix: "r", metrics: 2, items: 50}, famWrite} {
			p := newPool(f, seed)
			fmt.Fprintln(&b, p.names, p.metricIDs, p.itemIDs[0][:10], f.itemLabel(seed, 1, 7))
		}
		return b.String()
	}
	a, b, other := render(7), render(7), render(8)
	if a != b {
		t.Fatal("the same seed generated different operations or items")
	}
	if a == other {
		t.Fatal("different seeds generated the same operations and items")
	}
	if !strings.Contains(a, "mixed_open") || !strings.Contains(a, "write_refresh") {
		t.Fatal("a network workload generated no operations")
	}
}

func TestOpenLoopScheduleRate(t *testing.T) {
	w, _ := findWorkload("mixed_open")
	for i, spec := range w.lanes {
		g := newOpGen(1, i, spec)
		const n = 20000
		var last op
		for j := 0; j < n; j++ {
			o := g.next()
			if o.due < last.due {
				t.Fatalf("lane %d: due times go backwards", i)
			}
			last = o
		}
		got := n / last.due.Seconds()
		if math.Abs(got-spec.rate)/spec.rate > 0.05 {
			t.Errorf("lane %d: %d arrivals by %v is %.1f/s, want about %v/s", i, n, last.due, got, spec.rate)
		}
	}
}

func TestPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if got := percentile(seq(100), 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(seq(5), 0.5); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2000, 1980}, // 20 samples beyond p99
		{1000, 990},  // exactly ten beyond
		{999, 989},   // nine beyond p99: fall back to the highest rank with ten beyond
		{100, 90},
		{11, 1},
		{10, 10}, // too few for any tail: the maximum
		{0, 0},
	} {
		if got := tailPercentile(seq(c.n), 0.99); got != c.want {
			t.Errorf("tailPercentile(1..%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps span 2: [30,40) counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // reaches past its parent: clipped to [90,100)
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild: covers span 2, not span 1
		{ID: 6, Parent: 0, Start: 200, End: 230}, // a second root without children
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNestsAcrossGoroutines(t *testing.T) {
	tr := newTracer()
	tr.nextQuery()
	endOp := tr.begin("loadgen", "op")
	endHTTP := tr.begin("dhsd", "GET /count")
	done := make(chan struct{})
	go func() { // the handler's goroutine, while the client's span is open
		defer close(done)
		tr.begin("serve", "Handler /count")()
	}()
	<-done
	endHTTP()
	endOp()
	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Fatalf("spans %d, still open %d; want 3 and 0", len(tr.spans), len(tr.open))
	}
	for i, wantParent := range []int{0, 1, 2} {
		if s := tr.spans[i]; s.Parent != wantParent || s.Query != 1 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d in query 1", i+1, s, wantParent)
		}
	}
	var nilTracer *tracer
	nilTracer.begin("x", "y")() // records nothing, and does not panic
}

func TestParseCount(t *testing.T) {
	body := []byte(`{"estimate":2112.5,"probes_attempted":40,"probes_failed":0,"intervals_skipped":0,"degraded":false}`)
	if est, degraded, ok := parseCount(body); !ok || degraded || est != 2112.5 {
		t.Errorf("parseCount(%s) = %v, %v, %v", body, est, degraded, ok)
	}
	if _, degraded, ok := parseCount(bytes.Replace(body, []byte("false"), []byte("true"), 1)); !ok || !degraded {
		t.Error("degraded body not recognised")
	}
	for _, bad := range []string{``, `{}`, `{"estimate":"x","degraded":false}`, `{"estimate":1}`} {
		if _, _, ok := parseCount([]byte(bad)); ok {
			t.Errorf("parseCount(%q) accepted", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	line := "4242 (dhs node) S 1 4242 4242 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 9 0 1000 1000000 2560 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	u, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if u.cpu != 200*clockTick {
		t.Errorf("cpu = %v, want 200 ticks", u.cpu)
	}
	if want := 2560 * float64(os.Getpagesize()) / (1 << 20); u.rss != want {
		t.Errorf("rss = %v MiB, want %v", u.rss, want)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestConvergedWhy(t *testing.T) {
	ids := []uint64{0x1000, 0x8000000000000000, 0xc000000000000000}
	addrs := []string{"a", "b", "c"}
	var sts []nodeStatus
	for i, id := range ids {
		sts = append(sts, nodeStatus{
			ID: fmt.Sprintf("%016x", id), Addr: addrs[i], Alive: true, Linked: true,
			Successors: []string{addrs[(i+1)%3], addrs[(i+2)%3]},
			Fingers:    expectedFingers(ids, id),
		})
	}
	if why := convergedWhy(sts, 3); why != "" {
		t.Fatalf("settled ring reported as %q", why)
	}
	// From 0x1000 every key up to +2^62 is b's and +2^63 is past b, so c's.
	if got := expectedFingers(ids, ids[0]); got != 2 {
		t.Errorf("expectedFingers of the first node = %d, want 2", got)
	}
	broken := append([]nodeStatus(nil), sts...)
	broken[1].Successors = []string{"a", "c"} // b skips c: the cycle closes after two nodes
	if why := convergedWhy(broken, 3); !strings.Contains(why, "cycle") {
		t.Errorf("short cycle reported as %q", why)
	}
	broken = append([]nodeStatus(nil), sts...)
	broken[2].Fingers--
	if why := convergedWhy(broken, 3); !strings.Contains(why, "fingers") {
		t.Errorf("missing finger reported as %q", why)
	}
}

// TestSpecMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workloads.go to each other.
func TestSpecMatchesTables(t *testing.T) {
	s, err := readSpec(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), metrics.go %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEndDefs)
	check("per_layer", s.PerLayer, perLayerDefs)
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, workloads.go %s", i, s.Workloads[i].Name, w.name)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values map[string][]float64) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for metric, vs := range values {
			for i, v := range vs {
				enc.Encode(record{Workload: "read_miss", Seed: uint64(i), Name: metric, Unit: "x", Value: v, N: 1})
			}
		}
		b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n") // a summary line: skipped
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", map[string][]float64{"msgs_per_op": {50, 55, 45}, "est_accuracy": {0.9}, "serve.fanout_ms_mean": {5}})
	same := write("same", map[string][]float64{"msgs_per_op": {52}, "est_accuracy": {0.89}, "serve.fanout_ms_mean": {50}})
	slower := write("slower", map[string][]float64{"msgs_per_op": {70}, "est_accuracy": {0.9}})
	lessExact := write("lessExact", map[string][]float64{"msgs_per_op": {40}, "est_accuracy": {0.5}})
	disjoint := write("disjoint", map[string][]float64{"rss_mb": {1}})

	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"within bounds; a per-layer metric has none", []string{base, same}, 0},
		{"lower-is-better metric rose past its bound", []string{base, slower}, 1},
		{"higher-is-better metric fell past its bound", []string{base, lessExact}, 1},
		{"nothing in common", []string{base, disjoint}, 2},
		{"one file", []string{base}, 2},
		{"missing file", []string{base, filepath.Join(dir, "absent")}, 2},
	} {
		var out, errOut bytes.Buffer
		got := run(append([]string{"-root", testRoot, "-compare"}, c.args...), &out, &errOut)
		if got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, out.String(), errOut.String())
		}
		if c.want == 1 && !strings.Contains(out.String(), "REGRESSED") {
			t.Errorf("%s: no row marked REGRESSED:\n%s", c.name, out.String())
		}
	}
}

// TestQuickPass runs every workload once on a 3-node ring with 1 s
// windows, and read_miss once more with the ladder, and requires every
// metric BENCHMARK.json names: present, finite, with its declared unit,
// and for end-to-end metrics not 0.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemon processes")
	}
	s, err := readSpec(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	last := func(out *bytes.Buffer) summary {
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not a summary: %v\n%s", err, lines[len(lines)-1])
		}
		return sum
	}
	check := func(label string, sum summary, want []specMetric, nonZero bool) {
		if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", label, sum.Correct, sum.Attempted, sum.Failed)
		}
		if len(sum.Metrics) != len(want) {
			t.Errorf("%s: %d metrics in the summary, want %d", label, len(sum.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := sum.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", label, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s has unit %q, want %q", label, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: %s = %v", label, m.Name, got.Value)
			case nonZero && got.Value == 0:
				t.Errorf("%s: %s = 0", label, m.Name)
			}
		}
	}
	for _, w := range s.Workloads {
		var out, errOut bytes.Buffer
		if code := run([]string{"-root", testRoot, "-quick", "-workload", w.Name, "-seed", "3", "-seconds", "1", "-trace", "0"}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.Name, code, errOut.String())
		}
		check(w.Name, last(&out), s.EndToEnd, true)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-root", testRoot, "-quick", "-workload", "read_miss", "-seed", "3", "-seconds", "1", "-trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("traced read_miss: exit %d\n%s", code, errOut.String())
	}
	sum := last(&out)
	check("traced read_miss", sum, s.PerLayer, false)
	// What an uncached scan must have exercised, in the scrape and in
	// the ladder. A renamed /metrics series would read 0 here.
	for _, name := range []string{
		"serve.fanout_ms_mean", "serve.request_ms_mean", "netdht.lookups_per_count", "netdht.probes_per_count",
		"netdht.bytes_per_count", "netdht.find_succ_rtt_us_mean", "netdht.probe_rtt_us_mean",
		"dhsnode.find_succ_us_mean", "dhsnode.probe_us_mean", "dhsnode.round_ms_mean", "dhsnode.load_max_over_mean",
		"dhsnode.cpu_ms_per_op", "dhsd.cpu_ms_per_op", "dhsnode.rss_mb_max", "dhsd.rss_mb",
		"store.tuples_per_node_mean", "store.bytes_per_node_mean", "loadgen.count_p50_ms",
		"sketch.estimate_ns", "store.probe_reply_ns", "store.set_new_ns", "store.set_refresh_ns",
		"wire.probe_codec_ns", "wire.insert_codec_ns", "wire.probe_resp_bytes", "netdht.exchange_us",
		"netdht.route_us.n8", "netdht.route_hops.n8", "netdht.route_us.n32", "netdht.route_hops.n32",
		"netdht.insert_us", "netdht.scan_ms", "netdht.scan_probes", "serve.miss_self_us", "serve.hit_ns",
		"dhsd.http_hit_us", "dhsd.http_miss_self_us", "core.insert_ns", "core.count_us", "core.hops_per_insert",
		"core.hops_per_count", "core.bytes_per_count", "core.nodes_visited_per_count", "chord.lookup_ns",
	} {
		if sum.Metrics[name].Value <= 0 {
			t.Errorf("traced read_miss: %s = %v, want > 0", name, sum.Metrics[name].Value)
		}
	}
	if !strings.Contains(errOut.String(), "latency budget of one uncached /count") {
		t.Error("traced read_miss printed no latency budget")
	}
	for _, w := range workloads {
		if len(w.lanes) == 0 {
			continue
		}
		path := filepath.Join(testRoot, "bench", "out", "trace-"+w.name+".jsonl")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("span file: %v", err)
			continue
		}
		var sp span
		if err := json.Unmarshal(bytes.SplitN(raw, []byte("\n"), 2)[0], &sp); err != nil || sp.ID == 0 || sp.Layer == "" {
			t.Errorf("%s: first line is not a span: %v", path, err)
		}
	}
}
