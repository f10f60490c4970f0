package sketch

import (
	"math/rand/v2"
	"testing"
)

// Distributed systems merge sketches in arbitrary orders (convergecast
// trees, gossip exchanges); these algebraic properties make the result
// order-independent.

func buildThree(t *testing.T, k Kind) (a, b, c Estimator) {
	t.Helper()
	mk := func(seed uint64) Estimator {
		e, err := New(k, 64, 20)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < 3000; i++ {
			e.Add(rng.Uint64())
		}
		return e
	}
	return mk(1), mk(2), mk(3)
}

// clone copies src by merging it into an empty sketch of its shape.
func clone(t *testing.T, k Kind, src Estimator) Estimator {
	t.Helper()
	dst, err := New(k, 64, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestMergeAssociativeCommutative(t *testing.T) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		a, b, c := buildThree(t, k)

		// (a ∪ b) ∪ c
		left := clone(t, k, a)
		if err := left.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := left.Merge(c); err != nil {
			t.Fatal(err)
		}
		// c ∪ (b ∪ a): different association and order.
		right := clone(t, k, c)
		bThenA := clone(t, k, b)
		if err := bThenA.Merge(a); err != nil {
			t.Fatal(err)
		}
		if err := right.Merge(bThenA); err != nil {
			t.Fatal(err)
		}
		if left.Estimate() != right.Estimate() {
			t.Errorf("%v: merge not associative/commutative: %v vs %v", k, left.Estimate(), right.Estimate())
		}
	}
}

func TestMergeIdempotent(t *testing.T) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		a, _, _ := buildThree(t, k)
		twice := clone(t, k, a)
		if err := twice.Merge(a); err != nil {
			t.Fatal(err)
		}
		if twice.Estimate() != a.Estimate() {
			t.Errorf("%v: self-merge changed the estimate", k)
		}
	}
}

func TestMergeWithEmptyIsIdentity(t *testing.T) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		a, _, _ := buildThree(t, k)
		before := a.Estimate()
		empty, err := New(k, 64, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Merge(empty); err != nil {
			t.Fatal(err)
		}
		if a.Estimate() != before {
			t.Errorf("%v: merging empty changed the estimate", k)
		}
	}
}
