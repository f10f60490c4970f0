package core

// Tests for the descending scan's starting position, which folds together
// two distinct concerns that an earlier version conflated in one
// expression: (a) the TrimmedScan ablation, which deliberately skips bit
// positions above k − log₂(m), and (b) the range clamp that extends the
// scan to MaxBit when it exceeds k−1 — with m = 1 no hash bits go to the
// vector index and ranks genuinely reach bit k.

import (
	"math"
	"testing"

	"dhsketch/internal/sketch"
)

// plantBit stores the tuple (metric, vector, bit) on every node of the
// overlay, so whichever node a counting walk probes answers for it —
// scan-range tests stay deterministic at any RNG stream.
func plantBit(d *DHS, metric uint64, vector int32, bit uint8) {
	k := TupleKey{Metric: metric, Vector: vector, Bit: bit}
	for _, n := range d.overlay.Nodes() {
		d.storeOf(n).Set(k, math.MaxInt64)
	}
}

func TestScanStartTrimmedScanAblation(t *testing.T) {
	// With m = 16 the vector index consumes 4 hash bits, so real ranks
	// stop at MaxBit = 12 — but Algorithm 1 as written scans the full
	// bitmap length, and only the TrimmedScan ablation may skip the top.
	// A tuple planted above MaxBit must be seen by the default scan and
	// ignored by the trimmed one.
	const plantedBit = 14
	metric := MetricID("scan-start")

	d, _, _ := testDHS(t, 11, 64, Config{K: 16, M: 16, Kind: sketch.KindSuperLogLog})
	if d.MaxBit() != 12 {
		t.Fatalf("MaxBit = %d, want 12", d.MaxBit())
	}
	plantBit(d, metric, 0, plantedBit)
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if est.R[0] != plantedBit {
		t.Errorf("default scan: R[0] = %d, want %d (scan must start at k−1)", est.R[0], plantedBit)
	}

	trimmed, _, _ := testDHS(t, 11, 64, Config{K: 16, M: 16, Kind: sketch.KindSuperLogLog, TrimmedScan: true})
	plantBit(trimmed, metric, 0, plantedBit)
	est, err = trimmed.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if est.R[0] != -1 {
		t.Errorf("trimmed scan: R[0] = %d, want -1 (positions above MaxBit skipped)", est.R[0])
	}
}

func TestScanStartClampedToMaxBitForSingleVector(t *testing.T) {
	// With m = 1, MaxBit = k exceeds k−1: ρ of an all-zero remainder is k,
	// and bit k has its own interval ([0, thr(k−1))). The scan's start
	// must clamp up to MaxBit — independent of the TrimmedScan ablation —
	// or the top statistic is silently unreachable.
	metric := MetricID("scan-clamp")
	for _, trimmedScan := range []bool{false, true} {
		d, _, _ := testDHS(t, 13, 64, Config{K: 16, M: 1, Kind: sketch.KindHyperLogLog, TrimmedScan: trimmedScan})
		if d.MaxBit() != 16 {
			t.Fatalf("MaxBit = %d, want 16", d.MaxBit())
		}
		plantBit(d, metric, 0, 16)
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		if est.R[0] != 16 {
			t.Errorf("TrimmedScan=%v: R[0] = %d, want 16 (scan must reach bit k)", trimmedScan, est.R[0])
		}
	}
}
