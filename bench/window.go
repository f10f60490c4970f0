package main

import (
	"math"
	"sort"
	"time"
)

// The reference sandbox is a shared virtual machine. Its speed changes
// from one second to the next: other tenants take a third to two thirds
// of the CPU time (visible as steal in /proc/stat), or slow it by 20% to
// 50% for minutes in ways no counter shows, and every timing, process
// CPU time included, reads that much worse. The disturbance only ever
// slows the system down, so the window is cut into one-second slices
// and the timings are taken over the best of them: the slices in which
// the system under test spent the least CPU time per operation. They
// say how fast the system is when the machine lets it run, and repeat
// better than the mean over the window — though not well enough to
// carry a bound (README, "Bounds and repeatability").
const (
	sliceLen = time.Second
	// bestShare is the share of a window's slices that count.
	bestShare = 0.3
)

// sample is one operation completed in the measured window.
type sample struct {
	at   time.Duration // completion, from the start of the window
	lat  float64       // ms, from the instant the operation was due
	kind opKind
}

// windowStats are the timings of one window over its best slices.
type windowStats struct {
	opsPerS    float64
	p50, p99   float64 // ms
	cpuMsPerOp float64
	n          int // operations in the slices that counted
}

// report writes the timings as the loadgen.* per-layer metrics.
func (st windowStats) report(out readings) {
	out.set("loadgen.ops_per_s", st.opsPerS, st.n)
	out.set("loadgen.op_p50_ms", st.p50, st.n)
	out.set("loadgen.op_p99_ms", st.p99, st.n)
	out.set("loadgen.cpu_ms_per_op", st.cpuMsPerOp, st.n)
}

// summarize takes the timings over the best ⌈bestShare⌉ of the window's
// slices: those with the least CPU time of the system under test per
// operation completed in them. sutCPU is that CPU time — every dhsnode
// plus dhsd, or the benchmark's own process on sim_scan — read at each
// slice boundary, so there are len(sutCPU)-1 slices.
func summarize(samples []sample, sutCPU []time.Duration) windowStats {
	n := len(sutCPU) - 1
	sliceOf := func(s sample) int { return min(int(s.at/sliceLen), n-1) } // due in the window, done just after it: the last slice
	ops := make([]int, n)
	for _, s := range samples {
		ops[sliceOf(s)]++
	}
	cost := make([]float64, n)
	order := make([]int, n)
	for i := range ops {
		cost[i] = math.Inf(1)
		if ops[i] > 0 {
			cost[i] = float64(sutCPU[i+1]-sutCPU[i]) / float64(ops[i])
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] < cost[order[b]] })
	best := make([]bool, n)
	var cpu time.Duration
	slices := int(math.Ceil(bestShare * float64(n)))
	for _, i := range order[:slices] {
		best[i] = true
		cpu += sutCPU[i+1] - sutCPU[i]
	}

	var lat []float64
	for _, s := range samples {
		if best[sliceOf(s)] {
			lat = append(lat, s.lat)
		}
	}
	sort.Float64s(lat)
	return windowStats{
		n:          len(lat),
		opsPerS:    float64(len(lat)) / (float64(slices) * sliceLen.Seconds()),
		p50:        percentile(lat, 0.5),
		p99:        tailPercentile(lat, 0.99),
		cpuMsPerOp: ratio(ms(cpu), float64(len(lat))),
	}
}
