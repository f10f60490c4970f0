package core

import "math"

// EmptyProbeProbability returns the paper's eq. 5: the probability that t
// probes of distinct uniformly chosen bins out of nNodes all come up
// empty, after nItems items were thrown uniformly into the bins:
//
//	P(X = t) = ((N' − t) / N')^{n'}.
func EmptyProbeProbability(nNodes, nItems float64, t int) float64 {
	if nNodes <= 0 {
		return 0
	}
	ft := float64(t)
	if ft >= nNodes {
		return 0
	}
	return math.Pow((nNodes-ft)/nNodes, nItems)
}

// RetryLimit returns the paper's eq. 6: the number of probes that
// suffices to hit a non-empty node with probability at least p, for an
// ID-space interval of nNodes nodes holding the bits of nItems items
// spread over m bitmap vectors and replicated to degree R (R = 0 means no
// replication; the formula uses the replica count R ≥ 1, so R = 0 and
// R = 1 coincide):
//
//	lim_m^R = ⌈N' · (1 − (1−p)^{m/(R·α·N')})⌉,  α = n'/N'.
//
// Note on the paper's eq. 6: it prints p^{m/(R·α·N')}, but inverting
// eq. 5 — P(t empty probes) = ((N'−t)/N')^{n'} ≤ 1−p — yields the
// (1−p)^{...} form above, and only that form reproduces the paper's own
// claim that lim = 5 guarantees success with probability ≥ 0.99 whenever
// α ≥ 1 (with p = 0.99 and α = 1, N'·(1 − 0.01^{1/N'}) → ln 100 ≈ 4.6).
// We take the printed exponent base to be a typo and implement the
// derivable form.
func RetryLimit(nNodes, nItems float64, p float64, m, replicas int) int {
	if nNodes <= 0 || nItems <= 0 {
		return 1
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return int(math.Ceil(nNodes))
	}
	if replicas < 1 {
		replicas = 1
	}
	alpha := nItems / nNodes
	exp := float64(m) / (float64(replicas) * alpha * nNodes)
	lim := math.Ceil(nNodes * (1 - math.Pow(1-p, exp)))
	if lim < 1 {
		return 1
	}
	return int(lim)
}
