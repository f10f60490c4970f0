package core

import (
	"math"

	"dhsketch/internal/dht"
)

// CountAdaptive estimates the metric's cardinality with the two-phase
// adaptive probing the paper sketches as remedy (i) in §4.1 for counting
// below the α ≥ 1 regime: a first pass with the constant default budget
// yields a rough estimate n̂; a second pass then probes each interval
// with the budget eq. 6 prescribes for n̂, clamped to
// [Lim, AdaptiveLimCap·Lim]. The returned estimate is the second pass's,
// and its cost includes both passes.
func (d *DHS) CountAdaptive(metric uint64, p float64) (Estimate, error) {
	src := d.overlay.RandomNode()
	if src == nil {
		return Estimate{}, dht.ErrNoRoute
	}
	return d.CountAdaptiveFrom(src, metric, p)
}

// AdaptiveLimCap bounds the per-interval budget of the adaptive second
// pass to this multiple of the configured Lim, so a wildly low first
// estimate cannot turn counting into a network flood.
const AdaptiveLimCap = 8

// eq6LimSchedule returns the adaptive second pass's per-bit probe-budget
// schedule: the paper's eq. 6 evaluated at each bit interval's true
// geometry for an expected cardinality of expectedItems and per-interval
// success probability p, clamped to [Lim, AdaptiveLimCap·Lim]. The
// least significant bits' larger intervals get the larger budgets they
// need (§4.1).
func (d *DHS) eq6LimSchedule(expectedItems float64, p float64) func(bit int) int {
	nHat := expectedItems
	if nHat < 1 {
		nHat = 1
	}
	return func(bit int) int {
		// With ShiftBits = b, bit i sits in interval I_{i−b}, whose node
		// count is 2^b larger while its item count is unchanged — eq. 6
		// evaluated at the interval's true geometry.
		nodes := float64(d.overlay.Size())
		intervalNodes := nodes * math.Exp2(-float64(bit-int(d.cfg.ShiftBits))-1)
		intervalItems := nHat * math.Exp2(-float64(bit)-1)
		lim := RetryLimit(intervalNodes, intervalItems, p, d.cfg.M, d.cfg.Replication)
		if lim < d.cfg.Lim {
			lim = d.cfg.Lim
		}
		if cap := AdaptiveLimCap * d.cfg.Lim; lim > cap {
			lim = cap
		}
		return lim
	}
}

// CountAdaptiveFrom is CountAdaptive with an explicit querying node.
func (d *DHS) CountAdaptiveFrom(src dht.Node, metric uint64, p float64) (Estimate, error) {
	first, err := d.CountFrom(src, metric)
	if err != nil {
		return Estimate{}, err
	}
	// The second pass is its own counting pass. The work of both is on the
	// books; what the estimate rests on — skipped intervals, unresolved
	// vectors — is the second pass's own.
	est := d.scanPass(src, []uint64{metric}, d.eq6LimSchedule(first.Value, p))[0]
	q, fq := &est.Quality, first.Quality
	est.Cost.add(first.Cost)
	q.ProbesAttempted += fq.ProbesAttempted
	q.ProbesFailed += fq.ProbesFailed
	q.StaleRetries += fq.StaleRetries
	q.RepairWindow = q.RepairWindow || fq.RepairWindow
	q.Degraded = q.Degraded || fq.Degraded
	return est, nil
}
