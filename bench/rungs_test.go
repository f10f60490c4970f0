package main

import (
	"bytes"
	"math"
	"testing"

	"dhsketch/internal/metrics"
)

// TestParsePromGolden feeds the parser what internal/metrics really
// writes — counters and gauges with and without labels, an escaped
// label value holding spaces, a histogram — and reads the series back
// by the spellings the scrape code uses.
func TestParsePromGolden(t *testing.T) {
	reg := metrics.New()
	reg.Counter("netdht_out_rpc_total", "outbound RPC exchanges", metrics.L("tag", "find_succ")).Add(41)
	reg.Counter("netdht_out_rpc_total", "outbound RPC exchanges", metrics.L("tag", "probe")).Add(7)
	reg.Counter("netdht_retries_total", "retries").Add(3)
	reg.Counter("odd_total", "a label value with a space, a quote and a newline", metrics.L("why", "say \"hi\" \n twice")).Add(2)
	reg.Gauge("dhsd_in_flight", "fan-outs running").Set(5)
	reg.GaugeFunc("dhs_store_bytes", "bytes held", func() float64 { return 10956.5 })
	h := reg.Histogram("netdht_out_rpc_seconds", "round trips", metrics.DefLatencyBuckets, metrics.L("tag", "probe"))
	h.Observe(0.001)
	h.Observe(0.003)
	bare := reg.Histogram("dhsd_fanout_seconds", "fan-outs", metrics.DefLatencyBuckets)
	bare.Observe(0.25)

	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	got, err := parseProm(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, text.String())
	}
	for series, want := range map[string]float64{
		`netdht_out_rpc_total{tag="find_succ"}`:                41,
		`netdht_out_rpc_total{tag="probe"}`:                    7,
		`netdht_retries_total`:                                 3,
		`odd_total{why="say \"hi\" \n twice"}`:                 2,
		`dhsd_in_flight`:                                       5,
		`dhs_store_bytes`:                                      10956.5,
		`netdht_out_rpc_seconds_count{tag="probe"}`:            2,
		`netdht_out_rpc_seconds_sum{tag="probe"}`:              0.004,
		`netdht_out_rpc_seconds_bucket{tag="probe",le="+Inf"}`: 2,
		`dhsd_fanout_seconds_count`:                            1,
	} {
		if v, ok := got[series]; !ok || math.Abs(v-want) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v\n%s", series, v, ok, want, text.String())
		}
	}
	if m := got.histMean("netdht_out_rpc_seconds", `tag="probe"`); math.Abs(m-0.002) > 1e-12 {
		t.Errorf("histMean with labels = %v, want 0.002", m)
	}
	if m := got.histMean("dhsd_fanout_seconds", ""); m != 0.25 {
		t.Errorf("histMean without labels = %v, want 0.25", m)
	}
	if m := got.histMean("absent_seconds", ""); m != 0 {
		t.Errorf("histMean of an absent histogram = %v, want 0", m)
	}

	// Deltas: what the window's two scrapes are turned into.
	h.Observe(0.005)
	text.Reset()
	reg.WritePrometheus(&text)
	after, err := parseProm(&text)
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(got)
	if d[`netdht_out_rpc_seconds_count{tag="probe"}`] != 1 || d[`netdht_out_rpc_total{tag="probe"}`] != 0 {
		t.Errorf("delta = %v", d)
	}

	if _, err := parseProm(bytes.NewReader([]byte("series_without_value\n"))); err == nil {
		t.Error("a line without a value was accepted")
	}
	if _, err := parseProm(bytes.NewReader([]byte("series NaNx\n"))); err == nil {
		t.Error("a non-numeric value was accepted")
	}
}
