package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// def names one metric of BENCHMARK.json and its unit. The two tables
// below are the benchmark's vocabulary; a test holds them equal to
// BENCHMARK.json.
type def struct{ name, unit string }

// endToEndDefs are reported by every workload with -trace 0. What "one
// operation" is depends on the workload and is stated in README.md.
// They are the costs the paper judges the system by — messages and
// bytes per operation, memory, accuracy — and they repeat from run to
// run. Timings do not on the reference sandbox (README, "Bounds and
// repeatability"); they are the per-layer loadgen.* metrics.
var endToEndDefs = []def{
	{"setup_s", "s"},
	{"msgs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"rss_mb", "MiB"},
	{"est_accuracy", "ratio"},
}

// perLayerDefs are reported with -trace 1, the layer's package or
// binary name first. A layer the workload does not reach reports 0.
var perLayerDefs = []def{
	// Scraped just before and just after the measured window.
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"serve.fanout_ms_mean", "ms"},
	{"serve.request_ms_mean", "ms"},
	{"netdht.lookups_per_count", "count"},
	{"netdht.probes_per_count", "count"},
	{"netdht.bytes_per_count", "B"},
	{"netdht.find_succ_rtt_us_mean", "us"},
	{"netdht.probe_rtt_us_mean", "us"},
	{"netdht.insert_rtt_us_mean", "us"},
	{"netdht.retries_per_kop", "count"},
	{"netdht.dials", "count"},
	{"dhsnode.find_succ_us_mean", "us"},
	{"dhsnode.probe_us_mean", "us"},
	{"dhsnode.insert_us_mean", "us"},
	{"dhsnode.round_ms_mean", "ms"},
	{"dhsnode.load_max_over_mean", "ratio"},
	{"dhsnode.cpu_ms_per_op", "ms"},
	{"dhsd.cpu_ms_per_op", "ms"},
	{"dhsnode.rss_mb_max", "MiB"},
	{"dhsd.rss_mb", "MiB"},
	{"store.tuples_per_node_mean", "count"},
	{"store.bytes_per_node_mean", "B"},
	{"loadgen.cpu_share", "ratio"},
	{"loadgen.cpu_available", "ratio"},
	{"loadgen.gen_lag_p99_ms", "ms"},
	{"loadgen.ops_per_s", "1/s"},
	{"loadgen.op_p50_ms", "ms"},
	{"loadgen.op_p99_ms", "ms"},
	{"loadgen.cpu_ms_per_op", "ms"},
	{"loadgen.count_per_s", "1/s"},
	{"loadgen.count_p50_ms", "ms"},
	{"loadgen.count_p99_ms", "ms"},
	{"loadgen.insert_per_s", "1/s"},
	{"loadgen.insert_p50_ms", "ms"},
	{"loadgen.insert_p99_ms", "ms"},
	{"loadgen.fail_ratio", "ratio"},
	{"loadgen.est_rel_err_mean", "ratio"},
	{"dhsketch.insert_per_s", "1/s"},
	{"dhsketch.count_per_s", "1/s"},
	// The ladder: each layer's exported functions timed in-process.
	{"sketch.estimate_ns", "ns"},
	{"store.probe_reply_ns", "ns"},
	{"store.set_new_ns", "ns"},
	{"store.set_refresh_ns", "ns"},
	{"wire.probe_codec_ns", "ns"},
	{"wire.insert_codec_ns", "ns"},
	{"wire.probe_resp_bytes", "B"},
	{"netdht.exchange_us", "us"},
	{"netdht.route_us.n8", "us"},
	{"netdht.route_hops.n8", "count"},
	{"netdht.route_us.n32", "us"},
	{"netdht.route_hops.n32", "count"},
	{"netdht.insert_us", "us"},
	{"netdht.scan_ms", "ms"},
	{"netdht.scan_probes", "count"},
	{"serve.miss_self_us", "us"},
	{"serve.hit_ns", "ns"},
	{"dhsd.http_hit_us", "us"},
	{"dhsd.http_miss_self_us", "us"},
	{"core.insert_ns", "ns"},
	{"core.count_us", "us"},
	{"core.hops_per_insert", "count"},
	{"core.hops_per_count", "count"},
	{"core.bytes_per_count", "B"},
	{"core.nodes_visited_per_count", "count"},
	{"chord.lookup_ns", "ns"},
	{"loadgen.trace_overhead_pct", "%"},
}

// reading is a metric's value and the number of samples behind it.
type reading struct {
	value float64
	n     int
}

// readings maps metric names to what a run measured.
type readings map[string]reading

func (r readings) set(name string, value float64, n int) { r[name] = reading{value, n} }

func (r readings) merge(other readings) {
	for k, v := range other {
		r[k] = v
	}
}

// runResult is one run of one workload.
type runResult struct {
	endToEnd  readings
	perLayer  readings
	attempted int
	failed    int
	// problems lists every reason the run's outputs are not correct;
	// empty means correct.
	problems []string
}

// resolve lays the readings out in the order of defs, as the records of
// one run. A reading whose name is not in defs is a bug in the
// benchmark, as is a value that is not a finite number.
func resolve(defs []def, r readings, workload string, seed uint64) ([]record, error) {
	known := map[string]bool{}
	out := make([]record, 0, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v := r[d.name]
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v.value)
		}
		out = append(out, record{workload, seed, d.name, d.unit, v.value, v.n})
	}
	var stray []string
	for name := range r {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("readings not declared in metrics.go: %v", stray)
	}
	return out, nil
}

// record is one line of the benchmark's output before the summary: one
// metric with everything needed to compare it with another run's. N is
// the sample count behind the value (the latencies a percentile was
// taken over, the operations a ratio was divided by).
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
}

// summary is the last line a run prints: the shape BENCHMARK.json's
// consumer reads.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit writes one record per metric of extra and of summarized, and
// then the summary line, which holds the summarized metrics only.
func emit(w io.Writer, extra, summarized []record, res *runResult) error {
	enc := json.NewEncoder(w)
	sum := summary{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]valueUnit{},
	}
	for _, m := range append(append([]record{}, extra...), summarized...) {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	for _, m := range summarized {
		sum.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	return enc.Encode(sum)
}
