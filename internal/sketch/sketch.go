// Package sketch implements the local (non-distributed) hash-sketch
// cardinality estimators the paper builds upon: Probabilistic Counting
// with Stochastic Averaging (PCSA, Flajolet & Martin 1985, the paper's
// eq. 4), LogLog and super-LogLog counting (Durand & Flajolet 2003, the
// paper's eq. 2 with the θ₀ = 0.7 truncation rule), and — as an extension
// beyond the paper — HyperLogLog.
//
// Two sketch types hold the local state: PCSA keeps m bitmaps, and
// Registers keeps the m maximum ranks every LogLog-family kind shares.
// New builds either. Which formula turns a kind's per-vector statistics
// into an estimate is decided in one place, Kind.Estimate, over the
// standalone functions (EstimatePCSA, EstimateSuperLogLog, ...): the
// local sketches call it, and so does the Distributed Hash Sketch layer,
// which reconstructs exactly those statistics from the overlay.
//
// All sketches hash externally: callers pass 64-bit pseudo-uniform hashes
// (in this repository, MD4-derived identifiers) to Add. This mirrors the
// paper's observation that DHTs already provide the pseudo-uniform hash
// function hash sketches require.
package sketch

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"dhsketch/internal/hashutil"
)

// Estimator is the common interface of all cardinality sketches in this
// package. Implementations are not safe for concurrent mutation.
type Estimator interface {
	// Add records one element, identified by its 64-bit pseudo-uniform hash.
	// Adding the same hash any number of times is equivalent to adding it
	// once (duplicate insensitivity, constraint 6 of the paper).
	Add(hash uint64)

	// Estimate returns the estimated number of distinct elements added.
	Estimate() float64

	// Merge folds other into the receiver so that the receiver estimates
	// the cardinality of the union of both multisets. It returns an error
	// if the sketches have incompatible parameters.
	Merge(other Estimator) error

	// Reset returns the sketch to its empty state.
	Reset()

	// NumVectors returns the number of bitmap vectors (m).
	NumVectors() int
}

// ErrIncompatible is returned by Merge when the two sketches do not share
// parameters (kind, number of vectors, bitmap width).
var ErrIncompatible = errors.New("sketch: incompatible sketches")

// Kind identifies one of the estimator families, used by the DHS layer and
// the experiment harness to select the counting algorithm.
type Kind int

const (
	// KindPCSA selects Probabilistic Counting with Stochastic Averaging.
	KindPCSA Kind = iota
	// KindSuperLogLog selects super-LogLog counting with truncation.
	KindSuperLogLog
	// KindLogLog selects plain (untruncated) LogLog counting.
	KindLogLog
	// KindHyperLogLog selects HyperLogLog (extension beyond the paper).
	KindHyperLogLog
)

// String returns the conventional name of the estimator family.
func (k Kind) String() string {
	switch k {
	case KindPCSA:
		return "PCSA"
	case KindSuperLogLog:
		return "super-LogLog"
	case KindLogLog:
		return "LogLog"
	case KindHyperLogLog:
		return "HyperLogLog"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves an estimator family from the name the command-line
// tools accept, case-insensitively: pcsa; sll or superloglog; loglog or
// ll; hll or hyperloglog.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "pcsa":
		return KindPCSA, nil
	case "sll", "superloglog":
		return KindSuperLogLog, nil
	case "loglog", "ll":
		return KindLogLog, nil
	case "hll", "hyperloglog":
		return KindHyperLogLog, nil
	default:
		return 0, fmt.Errorf("unknown estimator kind %q (want pcsa, sll, loglog, or hll)", s)
	}
}

// StdError returns the theoretical standard error (standard deviation of
// the relative error) of the estimator family with m vectors, as quoted in
// §2.2 of the paper: 0.78/√m for PCSA and 1.05/√m for super-LogLog.
func (k Kind) StdError(m int) float64 {
	rm := math.Sqrt(float64(m))
	switch k {
	case KindPCSA:
		return 0.78 / rm
	case KindSuperLogLog:
		return 1.05 / rm
	case KindLogLog:
		return 1.30 / rm
	case KindHyperLogLog:
		return 1.04 / rm
	default:
		panic("sketch: unknown kind")
	}
}

// Estimate applies the kind's formula to per-vector statistics: leftmost
// zero positions for KindPCSA (eq. 4), maximum ranks ρ+1 with 0 for an
// empty vector for the register kinds (eq. 2 for super-LogLog). It is the
// one place a kind picks its formula; the local sketches and the DHS
// layer both call it.
func (k Kind) Estimate(stats []int) float64 {
	switch k {
	case KindPCSA:
		return EstimatePCSA(stats)
	case KindSuperLogLog:
		return EstimateSuperLogLog(stats)
	case KindLogLog:
		return EstimateLogLog(stats)
	case KindHyperLogLog:
		return EstimateHyperLogLog(stats)
	default:
		panic(fmt.Sprintf("sketch: unknown kind %d", int(k)))
	}
}

// CheckVectors reports whether kind k can estimate from m vectors: an
// unknown kind cannot, and super-LogLog and plain LogLog need m ≥ 2
// (their α constants have no value at m = 1).
func (k Kind) CheckVectors(m int) error {
	switch k {
	case KindPCSA, KindHyperLogLog:
		return nil
	case KindSuperLogLog, KindLogLog:
		if m < 2 {
			return fmt.Errorf("sketch: %v needs at least 2 vectors, got %d", k, m)
		}
		return nil
	default:
		return fmt.Errorf("sketch: unknown kind %d", int(k))
	}
}

// New constructs an empty sketch of the given family with m vectors, each
// of width w bits: a PCSA for KindPCSA, Registers for the others. m must
// be a power of two that k.CheckVectors accepts; w must fit the
// cardinalities the caller intends to count (the paper's eq. 3).
func New(k Kind, m int, w uint) (Estimator, error) {
	if err := k.CheckVectors(m); err != nil {
		return nil, err
	}
	if err := validateParams(m, w); err != nil {
		return nil, err
	}
	c := hashutil.Log2(uint64(m))
	if k == KindPCSA {
		return &PCSA{c: c, w: w, bitmaps: make([]uint64, m)}, nil
	}
	return &Registers{kind: k, c: c, w: w, rank: make([]uint8, m)}, nil
}

// MinBitmapWidth returns the minimum hash length H₀ the paper's eq. 3
// prescribes for counting up to nmax items with m vectors:
// H₀ = log₂ m + ⌈log₂(nmax/m) + 3⌉.
func MinBitmapWidth(nmax uint64, m int) uint {
	if m <= 0 || !hashutil.IsPowerOfTwo(uint64(m)) {
		panic("sketch: m must be a positive power of two")
	}
	c := hashutil.Log2(uint64(m))
	per := float64(nmax) / float64(m)
	bits := uint(0)
	for v := 1.0; v < per; v *= 2 {
		bits++
	}
	return c + bits + 3
}

func validateParams(m int, w uint) error {
	if m <= 0 || !hashutil.IsPowerOfTwo(uint64(m)) {
		return fmt.Errorf("sketch: number of vectors %d is not a positive power of two", m)
	}
	c := hashutil.Log2(uint64(m))
	if w == 0 || c+w > 64 {
		return fmt.Errorf("sketch: bitmap width %d with %d vectors exceeds 64 hash bits", w, m)
	}
	return nil
}
