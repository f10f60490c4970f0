// Package sketch implements the local (non-distributed) hash-sketch
// cardinality estimators the paper builds upon: Probabilistic Counting
// with Stochastic Averaging (PCSA, Flajolet & Martin 1985, the paper's
// eq. 4), LogLog and super-LogLog counting (Durand & Flajolet 2003, the
// paper's eq. 2 with the θ₀ = 0.7 truncation rule), and — as an extension
// beyond the paper — HyperLogLog.
//
// The estimation formulas are exposed both as methods on concrete sketch
// types and as standalone functions over per-vector statistics
// (EstimatePCSA, EstimateSuperLogLog, ...), because the Distributed Hash
// Sketch layer reconstructs exactly those statistics from the overlay and
// then applies the same mathematics.
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
// parameters (type, number of vectors, bitmap width).
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

// New constructs an estimator of the given family with m vectors, each of
// width w bits. m must be a power of two; w must fit the cardinalities the
// caller intends to count (the paper's eq. 3).
func New(k Kind, m int, w uint) (Estimator, error) {
	switch k {
	case KindPCSA:
		return NewPCSA(m, w)
	case KindSuperLogLog:
		return NewSuperLogLog(m, w)
	case KindLogLog:
		return NewLogLog(m, w)
	case KindHyperLogLog:
		return NewHyperLogLog(m, w)
	default:
		return nil, fmt.Errorf("sketch: unknown kind %d", int(k))
	}
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
